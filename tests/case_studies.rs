//! Cross-crate integration tests: the paper's case-study workflows end to
//! end, at test-friendly scale.

use emm_verif::bmc::{
    pba, AbstractionSpec, BmcEngine, BmcVerdict, ProofEngine, ProofKind, VerifyOptions,
};
use emm_verif::designs::image_filter::{ImageFilter, ImageFilterConfig};
use emm_verif::designs::industry2::{Industry2, Industry2Config};
use emm_verif::designs::quicksort::{QuickSort, QuickSortConfig};

/// Table 1's EMM rows: P1 and P2 are proved by forward induction, with
/// diameters growing with N.
#[test]
fn quicksort_proofs_scale_with_n() {
    let mut diameters = Vec::new();
    for n in [2usize, 3] {
        let qs = QuickSort::new(QuickSortConfig {
            n,
            addr_width: 3,
            data_width: 3,
            bug: Default::default(),
        });
        for prop in [qs.p1.0 as usize, qs.p2.0 as usize] {
            let mut engine = BmcEngine::new(&qs.design, VerifyOptions::default().proofs(true));
            let run = engine.check(prop, qs.cycle_bound()).expect("run");
            match run.verdict {
                BmcVerdict::Proof { depth, .. } => {
                    if prop == qs.p1.0 as usize {
                        diameters.push(depth);
                    }
                }
                other => panic!("n={n} prop {prop}: expected proof, got {other:?}"),
            }
        }
    }
    assert!(
        diameters[1] > diameters[0],
        "proof diameter must grow with N: {diameters:?}"
    );
}

/// A buggy sort (comparison inverted) must yield a real, validated
/// counterexample for P1 — EMM's falsification side.
#[test]
fn quicksort_p1_holds_only_for_correct_comparison() {
    // We cannot easily invert the comparison inside the canned design, so
    // check the dual: P1's bad latch is reachable in no run; asserting the
    // *negation* (sortedness observed) must produce a witness, confirming
    // the property machinery is not vacuous.
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 3,
        data_width: 3,
        bug: Default::default(),
    });
    // Property: the checker reaches HALT (vacuity check: executions finish).
    let mut d = qs.design.clone();
    let halted = qs.halted;
    d.add_property("reaches_halt", halted);
    let mut engine = BmcEngine::new(&d, VerifyOptions::default());
    let run = engine.check(2, qs.cycle_bound()).expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            trace
                .validate(&d)
                .expect("the halt witness must re-simulate");
        }
        other => panic!("expected a halt witness, got {other:?}"),
    }
}

/// Table 2's flow: PBA discovers that P2 does not need the array memory,
/// and the reduced model still proves P2.
#[test]
fn quicksort_pba_drops_array_for_p2() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 3,
        data_width: 3,
        bug: Default::default(),
    });
    // Stability depth 10, as the paper uses for Table 2; the
    // discover-and-prove loop handles the case where the proof needs
    // reasons from deeper than the discovery window.
    let config = pba::PbaConfig {
        stability_depth: 10,
        max_depth: qs.cycle_bound(),
        ..pba::PbaConfig::default()
    };
    let result =
        pba::discover_and_prove(&qs.design, qs.p2.0 as usize, &config, qs.cycle_bound(), 4)
            .expect("discover and prove");
    assert!(
        matches!(result.verdict, BmcVerdict::Proof { .. }),
        "reduced-model proof failed: {:?}",
        result.verdict
    );
    assert!(
        !result.abstraction.kept_memories[qs.array.0 as usize],
        "the array module must be abstracted away for P2 (Table 2)"
    );
    assert!(
        result.abstraction.kept_memories[qs.stack.0 as usize],
        "the stack module is needed for P2"
    );
    assert!(
        result.abstraction.num_kept_latches() < qs.design.num_latches(),
        "the reduced model must be smaller"
    );
}

/// Industry I: every reachable property has a witness at its target depth;
/// every invariant property is proved by induction quickly.
#[test]
fn image_filter_property_bank() {
    let config = ImageFilterConfig::small();
    let filter = ImageFilter::new(config);
    let mut engine = BmcEngine::new(&filter.design, VerifyOptions::default());
    let mut max_depth = 0usize;
    for &p in &filter.reachable {
        let run = engine.check(p, config.max_witness_depth + 4).expect("run");
        match run.verdict {
            BmcVerdict::Counterexample(trace) => {
                trace
                    .validate(&filter.design)
                    .expect("witness re-simulates");
                max_depth = max_depth.max(trace.depth());
            }
            other => panic!("property {p}: expected witness, got {other:?}"),
        }
    }
    assert!(max_depth >= 8, "depths should spread out (max {max_depth})");

    // The backward check is k-induction's step query under the same
    // budget, so a backward proof lands at a fresh k-induction engine's
    // depth.
    let mut engine = BmcEngine::new(&filter.design, VerifyOptions::default().proofs(true));
    for &p in &filter.unreachable {
        let run = engine.check(p, 24).expect("run");
        assert!(
            run.verdict.is_proof(),
            "invariant property {p} should be proved: {:?}",
            run.verdict
        );
        if let BmcVerdict::Proof {
            kind: ProofKind::BackwardInduction,
            depth,
        } = run.verdict
        {
            let induction = BmcEngine::new(
                &filter.design,
                VerifyOptions::default().proof_engine(ProofEngine::KInduction),
            )
            .check(p, 24)
            .expect("k-induction run")
            .verdict;
            assert!(
                matches!(induction, BmcVerdict::Proved { k } if k == depth),
                "property {p}: backward proof at {depth}, k-induction {induction:?}"
            );
        }
    }
}

/// Industry II: the full four-step workflow from the paper.
#[test]
fn industry2_full_workflow() {
    let config = Industry2Config::small();
    let lookup = Industry2::new(config);
    let d = &lookup.design;

    // 1. Memory abstracted: spurious witness exactly at the pipeline depth.
    let no_memory = AbstractionSpec {
        kept_latches: vec![true; d.num_latches()],
        kept_memories: vec![false; d.memories().len()],
    };
    let mut engine = BmcEngine::new(
        d,
        VerifyOptions::default()
            .abstraction(Some(no_memory.clone()))
            .validate_traces(false),
    );
    let run = engine.check(lookup.lookups[0], 20).expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(t) => {
            assert_eq!(
                t.depth() - 1,
                config.pipeline_depth,
                "paper: spurious CE at depth 7"
            );
        }
        other => panic!("expected spurious CE, got {other:?}"),
    }

    // 2. EMM: no witness.
    let mut engine = BmcEngine::new(d, VerifyOptions::default());
    for &p in &lookup.lookups {
        let run = engine.check(p, 25).expect("run");
        assert!(
            matches!(run.verdict, BmcVerdict::BoundReached),
            "property {p} must have no witness under EMM: {:?}",
            run.verdict
        );
    }

    // 3. Invariant proved by backward induction at small depth.
    let mut engine = BmcEngine::new(d, VerifyOptions::default().proofs(true));
    let run = engine.check(lookup.invariant, 10).expect("run");
    match run.verdict {
        BmcVerdict::Proof { kind, depth } => {
            assert_eq!(kind, ProofKind::BackwardInduction);
            assert!(depth <= 2, "paper proves at depth 2; got {depth}");
        }
        other => panic!("invariant not proved: {other:?}"),
    }

    // 4. Invariant applied to RD + memory abstracted: all properties proved.
    let constrained = Industry2::new(Industry2Config {
        assume_rd_zero: true,
        ..config
    });
    let cd = &constrained.design;
    let no_memory = AbstractionSpec {
        kept_latches: vec![true; cd.num_latches()],
        kept_memories: vec![false; cd.memories().len()],
    };
    let mut engine = BmcEngine::new(
        cd,
        VerifyOptions::default()
            .proofs(true)
            .abstraction(Some(no_memory))
            .validate_traces(false),
    );
    for &p in &constrained.lookups {
        let run = engine.check(p, 25).expect("run");
        assert!(
            run.verdict.is_proof(),
            "lookup property {p}: {:?}",
            run.verdict
        );
    }
}

/// The tiny-CPU workload: a concrete program's result proved correct, and
/// halt-stickiness proved over all programs (arbitrary-init instruction
/// memory, the second structurally different eq. (6) workload).
#[test]
fn cpu_program_correctness_and_any_program_invariant() {
    use emm_verif::designs::cpu::{emulate, CpuConfig, Instr, Op, TinyCpu};
    let config = CpuConfig {
        imem_addr_width: 3,
        dmem_addr_width: 2,
        data_width: 3,
    };
    let program = vec![
        Instr {
            op: Op::Ldi,
            arg: 3,
        },
        Instr {
            op: Op::Store,
            arg: 0,
        },
        Instr {
            op: Op::Add,
            arg: 0,
        },
        Instr {
            op: Op::Halt,
            arg: 0,
        },
    ];
    let expected = emulate(&config, &program, &[], 50);
    assert!(expected.halted);
    let cpu = TinyCpu::with_program(config, &program, expected.acc);
    let prop = cpu.result_correct.expect("concrete").0 as usize;
    let mut engine = BmcEngine::new(&cpu.design, VerifyOptions::default().proofs(true));
    let run = engine
        .check(prop, cpu.load_cycles + expected.cycles + 20)
        .expect("run");
    assert!(
        run.verdict.is_proof(),
        "program result proof: {:?}",
        run.verdict
    );

    // A wrong expectation must be refuted with a validated witness.
    let wrong = TinyCpu::with_program(config, &program, expected.acc ^ 1);
    let prop = wrong.result_correct.expect("concrete").0 as usize;
    let mut engine = BmcEngine::new(&wrong.design, VerifyOptions::default());
    let run = engine
        .check(prop, wrong.load_cycles + expected.cycles + 4)
        .expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            trace.validate(&wrong.design).expect("witness replays");
        }
        other => panic!("wrong expectation must be refuted: {other:?}"),
    }

    // Any-program invariant.
    let any = TinyCpu::any_program(config);
    let mut engine = BmcEngine::new(&any.design, VerifyOptions::default().proofs(true));
    let run = engine.check(any.halt_sticky.0 as usize, 20).expect("run");
    assert!(
        run.verdict.is_proof(),
        "halt_sticky over all programs: {:?}",
        run.verdict
    );
}

/// The falsification side of Table 1's story: injected defects produce
/// real, validated counterexamples — BMC-2 "finding real bugs" with EMM,
/// including the arbitrary-initial-stack contents a witness needs.
#[test]
fn quicksort_injected_bugs_are_found() {
    use emm_verif::designs::quicksort::Bug;
    // Inverted comparison: P1 witness.
    let qs = QuickSort::new(QuickSortConfig {
        bug: Bug::InvertedComparison,
        n: 3,
        addr_width: 3,
        data_width: 3,
    });
    let mut engine = BmcEngine::new(&qs.design, VerifyOptions::default());
    let run = engine
        .check(qs.p1.0 as usize, qs.cycle_bound())
        .expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            trace.validate(&qs.design).expect("P1 bug witness replays");
        }
        other => panic!("inverted comparison must violate P1: {other:?}"),
    }

    // Missing empty check: P2 witness (stack underflow reads garbage).
    let qs = QuickSort::new(QuickSortConfig {
        bug: Bug::MissingEmptyCheck,
        n: 2,
        addr_width: 3,
        data_width: 3,
    });
    let mut engine = BmcEngine::new(&qs.design, VerifyOptions::default());
    let run = engine
        .check(qs.p2.0 as usize, qs.cycle_bound())
        .expect("run");
    match run.verdict {
        BmcVerdict::Counterexample(trace) => {
            trace
                .validate(&qs.design)
                .expect("P2 underflow witness replays");
            assert!(
                !trace.memory_seeds[qs.stack.0 as usize].is_empty(),
                "the witness must pin garbage initial stack contents"
            );
        }
        other => panic!("missing empty check must violate P2: {other:?}"),
    }
}
