//! Deterministic fault-injection harness for the resource-governance
//! stack: every poll/accounting site in the pipeline can be tripped on
//! its Nth occurrence ([`ResourceGovernor::with_fault`]), and a degraded
//! run must stay *sound* — it may give up ([`BmcVerdict::Unknown`]) but
//! it must never flip a verdict, panic, hang, or leave the engine
//! unusable. Every injected failure is then resumed with an unlimited
//! governor and must reach the reference verdict, which also regresses
//! the resumability guarantee: in incremental mode, cleanly refuted
//! bounds are skipped on resume, not re-solved (pinned through the
//! property-clause retirement accounting).
//!
//! The sweep is seeded and budget-free, so each (site, N) pair replays
//! identically: a failure here is a deterministic repro, not a flake.
//! With proofs on, the engine's anchored and floating contexts ask each
//! bound's queries in turn on the caller's thread under clones of one
//! governor, so the N-th occurrence of a site counts across both; the
//! proofs-on sweep runs every pair twice to pin that it replays.
//!
//! The k-induction engine shares the governance contract: its sweeps at
//! the bottom of this file assert the same no-flip/resume guarantees,
//! plus the step-side resumability pin (cleanly failed step depths are
//! skipped on resume, witnessed by the step-group retirement counts).

use std::time::{Duration, Instant};

use emm_aig::{Design, LatchInit, MemInit};
use emm_bmc::{BmcEngine, BmcVerdict, ProofEngine, VerifyOptions};
use emm_designs::fifo::{Fifo, FifoConfig};
use emm_designs::industry2::{Industry2, Industry2Config};
use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
use emm_sat::{ExhaustionReason, FaultSite, ResourceGovernor, SimplifyConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const ALL_SITES: [FaultSite; 7] = [
    FaultSite::Conflict,
    FaultSite::RetiredClause,
    FaultSite::FraigCheck,
    FaultSite::FraigMerge,
    FaultSite::EmmComparator,
    FaultSite::RewriteIteration,
    FaultSite::Frame,
];

fn verdict_shape(v: &BmcVerdict) -> (u8, usize) {
    match v {
        BmcVerdict::Proof { depth, .. } => (0, *depth),
        BmcVerdict::Counterexample(t) => (1, t.depth()),
        BmcVerdict::Proved { k } => (4, *k),
        BmcVerdict::BoundReached => (2, usize::MAX),
        BmcVerdict::Unknown { .. } => (3, usize::MAX),
    }
}

/// A degraded run is sound when it either reaches the reference verdict
/// or honestly gives up; anything else is a flipped verdict.
fn assert_sound(context: &str, reference: &BmcVerdict, degraded: &BmcVerdict) {
    if let BmcVerdict::Unknown { reason, .. } = degraded {
        assert_eq!(
            *reason,
            ExhaustionReason::Cancelled,
            "{context}: a fault trip must surface as cancellation, got {degraded:?}"
        );
        return;
    }
    assert_eq!(
        verdict_shape(reference),
        verdict_shape(degraded),
        "{context}: verdict flipped — reference {reference:?}, degraded {degraded:?}"
    );
}

fn opts(governor: ResourceGovernor, proofs: bool) -> VerifyOptions {
    VerifyOptions::default()
        .proofs(proofs)
        .governor(governor)
        .simplify(SimplifyConfig::default())
}

/// The random memory design family of the differential suites: a memory
/// driven by a free-running counter and inputs, with a reachability
/// property on the read port.
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

/// Injects a fault at `site` on the `n`-th occurrence, checks the run
/// stayed sound, then resumes the *same engine* with an unlimited
/// governor and requires the reference verdict.
fn inject_and_resume(
    design: &Design,
    prop: usize,
    bound: usize,
    proofs: bool,
    reference: &BmcVerdict,
    site: FaultSite,
    n: u64,
) {
    let context = format!("fault ({site:?}, {n})");
    let governor = ResourceGovernor::unlimited().with_fault(site, n);
    let mut engine = BmcEngine::new(design, opts(governor, proofs));
    let degraded = engine.check(prop, bound).expect("no spurious traces");
    assert_sound(&context, reference, &degraded.verdict);
    engine.set_governor(ResourceGovernor::unlimited());
    let resumed = engine.check(prop, bound).expect("no spurious traces");
    assert_eq!(
        verdict_shape(reference),
        verdict_shape(&resumed.verdict),
        "{context}: resume with unlimited budget must reach the reference \
         verdict, got {:?} (reference {reference:?})",
        resumed.verdict
    );
}

/// Full (site, N) sweep over the random design family, proofs off and
/// on: no panic, no verdict flip, and every degraded engine resumes to
/// the reference verdict.
#[test]
fn fault_sweep_on_random_designs_never_flips_verdicts() {
    let mut rng = StdRng::seed_from_u64(0xFA17);
    // Proofs off: every site, two trip counts (first occurrence and
    // mid-stream).
    let d = random_mem_design(&mut rng);
    let reference = {
        let mut engine = BmcEngine::new(&d, opts(ResourceGovernor::unlimited(), false));
        engine.check(0, 6).expect("reference").verdict
    };
    for site in ALL_SITES {
        for n in [1, 7] {
            inject_and_resume(&d, 0, 6, false, &reference, site, n);
        }
    }
    // Proofs on: the floating context and the termination queries join
    // the blast radius.
    let d = random_mem_design(&mut rng);
    let reference = {
        let mut engine = BmcEngine::new(&d, opts(ResourceGovernor::unlimited(), true));
        engine.check(0, 6).expect("reference").verdict
    };
    for site in [
        FaultSite::Conflict,
        FaultSite::RetiredClause,
        FaultSite::EmmComparator,
        FaultSite::Frame,
    ] {
        for n in [1, 7] {
            inject_and_resume(&d, 0, 6, true, &reference, site, n);
            assert_fault_replays(&d, 0, 6, site, n);
        }
    }
}

/// With proofs on, the two contexts ask each bound's queries in turn and
/// count fault sites on one counter. A trip therefore lands at the same
/// query on every run: two fresh engines end identically.
fn assert_fault_replays(design: &Design, prop: usize, bound: usize, site: FaultSite, n: u64) {
    let run_once = || {
        let governor = ResourceGovernor::unlimited().with_fault(site, n);
        let mut engine = BmcEngine::new(design, opts(governor, true));
        let run = engine.check(prop, bound).expect("no spurious traces");
        let clean = match run.verdict {
            BmcVerdict::Unknown {
                deepest_clean_bound,
                ..
            } => deepest_clean_bound,
            _ => None,
        };
        (verdict_shape(&run.verdict), clean, run.depth_reached)
    };
    assert_eq!(
        run_once(),
        run_once(),
        "fault ({site:?}, {n}) must replay identically with proofs on"
    );
}

/// Both contexts count frames on one fault counter, and here the
/// floating bank answers every backward check, so the floating context
/// unrolls no frame: a frame fault armed at `n` trips at bound `n - 1`
/// with proofs on, exactly as with proofs off (one anchored frame per
/// bound).
#[test]
fn frame_fault_trips_at_the_same_bound_with_proofs_on() {
    let ind2 = Industry2::new(Industry2Config::small());
    let prop = ind2.lookups[0];
    for proofs in [false, true] {
        for n in [2, 4] {
            let governor = ResourceGovernor::unlimited().with_fault(FaultSite::Frame, n);
            let mut engine = BmcEngine::new(&ind2.design, opts(governor, proofs));
            let run = engine.check(prop, 8).expect("run");
            assert!(
                matches!(
                    run.verdict,
                    BmcVerdict::Unknown {
                        reason: ExhaustionReason::Cancelled,
                        deepest_clean_bound: Some(d),
                    } if d as u64 == n - 2
                ),
                "proofs {proofs}, n {n}: {:?}",
                run.verdict
            );
            assert_eq!(run.depth_reached as u64, n - 1, "proofs {proofs}, n {n}");
            assert_eq!(engine.step_queries(), 0, "proofs {proofs}, n {n}");
        }
    }
}

/// The Table 1 falsification workload (buggy quicksort, P1 witnesses
/// the inverted comparison): a fault anywhere in the pipeline must not
/// move or destroy the counterexample.
#[test]
fn fault_sweep_on_quicksort_counterexample() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::InvertedComparison,
    });
    let prop = qs.p1.0 as usize;
    let bound = qs.cycle_bound();
    let reference = {
        let mut engine = BmcEngine::new(&qs.design, opts(ResourceGovernor::unlimited(), false));
        engine.check(prop, bound).expect("reference").verdict
    };
    assert!(
        reference.is_counterexample(),
        "P1 must fail under the inverted comparison: {reference:?}"
    );
    for site in [
        FaultSite::Conflict,
        FaultSite::Frame,
        FaultSite::EmmComparator,
        FaultSite::FraigCheck,
    ] {
        for n in [1, 30] {
            inject_and_resume(&qs.design, prop, bound, false, &reference, site, n);
        }
    }
}

/// Resumability regression (white-box): a deterministic frame-site
/// fault stops the bound loop mid-way with
/// `deepest_clean_bound = Some(d)`; the resumed check must *skip* the
/// cleanly refuted bounds, pinned through the property-clause
/// retirement count.
#[test]
fn resume_skips_cleanly_refuted_bounds() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::None,
    });
    let prop = qs.p1.0 as usize;
    let bound = 12;
    // The 5th unrolled frame cancels the pipeline: bounds 0..=3 are
    // refuted cleanly, bound 4's counterexample check opens a group and
    // hits the tripped governor.
    let governor = ResourceGovernor::unlimited().with_fault(FaultSite::Frame, 5);
    let mut engine = BmcEngine::new(&qs.design, opts(governor, false));
    let degraded = engine.check(prop, bound).expect("run").verdict;
    let BmcVerdict::Unknown {
        reason,
        deepest_clean_bound,
    } = degraded
    else {
        panic!("frame fault must degrade the run, got {degraded:?}");
    };
    assert_eq!(reason, ExhaustionReason::Cancelled);
    assert_eq!(
        deepest_clean_bound,
        Some(3),
        "bounds 0..=3 were refuted before the 5th frame tripped"
    );
    engine.set_governor(ResourceGovernor::unlimited());
    let resumed = engine.check(prop, bound).expect("resume").verdict;
    assert!(
        matches!(resumed, BmcVerdict::BoundReached),
        "P1 holds to bound 12: {resumed:?}"
    );
    // 13 refuted bounds retire one property clause each, plus the group
    // abandoned by the interrupted bound-4 check. If the resume had
    // re-solved bounds 0..=3 instead of skipping them, each would have
    // retired a second clause and the total would be at least 18.
    assert_eq!(
        engine.property_clauses_retired(),
        14,
        "resume must continue from the deepest clean bound"
    );
    let (_, solver) = engine.solver_stats();
    assert_eq!(
        solver.retired_clauses,
        engine.property_clauses_retired(),
        "retirement accounting must survive a degrade/resume cycle"
    );
}

/// Memory-pressure degradation: a ceiling the workload cannot fit under
/// yields `Unknown { reason: MemoryLimit }` (not a panic, not an OOM),
/// and raising the ceiling resumes to the reference verdict.
#[test]
fn memory_ceiling_degrades_to_unknown_and_resumes() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::None,
    });
    let prop = qs.p1.0 as usize;
    let bound = 12;
    let governor = ResourceGovernor::unlimited().with_memory_limit(64 * 1024);
    let mut engine = BmcEngine::new(&qs.design, opts(governor, false));
    let degraded = engine.check(prop, bound).expect("run").verdict;
    let BmcVerdict::Unknown { reason, .. } = degraded else {
        panic!("a 64 KiB arena ceiling must trip on this workload, got {degraded:?}");
    };
    assert_eq!(reason, ExhaustionReason::MemoryLimit);
    engine.set_governor(ResourceGovernor::unlimited());
    let resumed = engine.check(prop, bound).expect("resume").verdict;
    assert!(
        matches!(resumed, BmcVerdict::BoundReached),
        "P1 holds to bound 12: {resumed:?}"
    );
}

/// Cooperative cancellation: a pre-cancelled governor returns
/// immediately — before any frame is unrolled — and
/// [`ResourceGovernor::reset_cancellation`] makes the same engine
/// usable again without replacing the governor.
#[test]
fn pre_cancelled_run_returns_immediately_and_resets() {
    let mut rng = StdRng::seed_from_u64(0xFA18);
    let d = random_mem_design(&mut rng);
    let governor = ResourceGovernor::unlimited();
    governor.cancel();
    let mut engine = BmcEngine::new(&d, opts(governor.clone(), false));
    let started = Instant::now();
    let degraded = engine.check(0, 6).expect("run").verdict;
    assert!(
        matches!(
            degraded,
            BmcVerdict::Unknown {
                reason: ExhaustionReason::Cancelled,
                deepest_clean_bound: None,
            }
        ),
        "cancelled before any bound: {degraded:?}"
    );
    assert_eq!(engine.depth(), 0, "no frame may be unrolled when cancelled");
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "cancellation latency must be bounded"
    );
    governor.reset_cancellation();
    let resumed = engine.check(0, 6).expect("resume").verdict;
    assert!(
        !resumed.is_unknown(),
        "reset_cancellation must restore the pipeline: {resumed:?}"
    );
}

/// [`VerifyOptions`] twin of [`opts`] for the k-induction engine.
fn ki_opts(governor: ResourceGovernor) -> VerifyOptions {
    VerifyOptions::default()
        .governor(governor)
        .simplify(SimplifyConfig::default())
}

/// [`ki_opts`] for a [`BmcEngine`] built with the k-induction schedule.
fn ki_engine_opts(governor: ResourceGovernor) -> VerifyOptions {
    ki_opts(governor).proof_engine(ProofEngine::KInduction)
}

/// Like [`inject_and_resume`], for the k-induction engine: the degraded
/// run must stay sound and the same engine must resume to the reference
/// verdict under an unlimited governor. Returns the degraded verdict.
fn ki_inject_and_resume(
    design: &Design,
    prop: usize,
    max_k: usize,
    reference: &BmcVerdict,
    site: FaultSite,
    n: u64,
) -> BmcVerdict {
    let context = format!("kinduction fault ({site:?}, {n})");
    let governor = ResourceGovernor::unlimited().with_fault(site, n);
    let mut engine = BmcEngine::new(design, ki_engine_opts(governor));
    let degraded = engine.check(prop, max_k).expect("no spurious traces");
    assert_sound(&context, reference, &degraded.verdict);
    engine.set_governor(ResourceGovernor::unlimited());
    let resumed = engine.check(prop, max_k).expect("no spurious traces");
    assert_eq!(
        verdict_shape(reference),
        verdict_shape(&resumed.verdict),
        "{context}: resume with unlimited budget must reach the reference \
         verdict, got {:?} (reference {reference:?})",
        resumed.verdict
    );
    degraded.verdict
}

/// A memory design whose only counterexample is at depth 5: the read port
/// returns 3 while the free-running counter `t` reads 5. Every bound
/// below 5 is refuted by the base case and left open by the step.
fn deep_counterexample_design() -> Design {
    let mut d = Design::new();
    let mem = d.add_memory("m", 2, 2, MemInit::Zero);
    let t = d.new_latch_word("t", 3, LatchInit::Zero);
    let next_t = d.aig.inc(&t);
    d.set_next_word(&t, &next_t);
    let wa = d.new_input_word("wa", 2);
    let we = d.new_input("we");
    let wd = d.new_input_word("wd", 2);
    d.add_write_port(mem, wa, we, wd);
    let ra = d.new_input_word("ra", 2);
    let rd = d.add_read_port(mem, ra, emm_aig::Aig::TRUE);
    let three = d.aig.eq_const(&rd, 3);
    let five = d.aig.eq_const(&t, 5);
    let bad = d.aig.and(three, five);
    d.add_property("p", bad);
    d.check().expect("valid");
    d
}

/// Full (site, N) sweep over the k-induction engine: the random design
/// family (counterexamples and open bounds) and a workload it proves.
/// No panic, no verdict flip, and every degraded engine resumes to the
/// reference verdict.
#[test]
fn fault_sweep_on_kinduction_never_flips_verdicts() {
    let sites = [
        FaultSite::Conflict,
        FaultSite::RetiredClause,
        FaultSite::EmmComparator,
        FaultSite::Frame,
    ];
    let mut rng = StdRng::seed_from_u64(0xFA19);
    let d = random_mem_design(&mut rng);
    let reference = {
        let mut engine = BmcEngine::new(&d, ki_engine_opts(ResourceGovernor::unlimited()));
        engine.check(0, 6).expect("reference").verdict
    };
    for site in sites {
        for n in [1, 7] {
            ki_inject_and_resume(&d, 0, 6, &reference, site, n);
        }
    }
    // A proving workload: the verdict at stake is `Proved { k }` itself.
    let fifo = Fifo::new(FifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    let prop = fifo.no_overflow.0 as usize;
    let reference = {
        let mut engine =
            BmcEngine::new(&fifo.design, ki_engine_opts(ResourceGovernor::unlimited()));
        engine.check(prop, 6).expect("reference").verdict
    };
    assert!(
        matches!(reference, BmcVerdict::Proved { k: 1 }),
        "fifo no_overflow is 1-inductive: {reference:?}"
    );
    for site in sites {
        for n in [1, 4] {
            ki_inject_and_resume(&fifo.design, prop, 6, &reference, site, n);
        }
    }
    // A deep workload: the random design above ends `cex@0`, before most
    // armed faults trip. Here every site has an armed fault that trips
    // after the base case has cleared bound 3, so the degraded run and its
    // resume cover a k-induction run past its first frames.
    let deep = deep_counterexample_design();
    let reference = {
        let mut engine = BmcEngine::new(&deep, ki_engine_opts(ResourceGovernor::unlimited()));
        engine.check(0, 6).expect("reference").verdict
    };
    assert_eq!(verdict_shape(&reference), (1, 6), "cex@5: {reference:?}");
    for site in sites {
        let deepest = [2, 4, 6, 8, 16, 24]
            .into_iter()
            .filter_map(
                |n| match ki_inject_and_resume(&deep, 0, 6, &reference, site, n) {
                    BmcVerdict::Unknown {
                        deepest_clean_bound,
                        ..
                    } => deepest_clean_bound,
                    _ => None,
                },
            )
            .max();
        assert!(
            deepest >= Some(3),
            "{site:?}: some armed fault must trip past bound 3, got {deepest:?}"
        );
    }
}

/// Step-side resumability regression (white-box): a frame-site fault
/// interrupts the k-induction loop after some inductive steps failed
/// cleanly; the resumed check must skip those step depths. The floating
/// bank answers the steps of bounds 0 and 1 without a frame event, so
/// the 5th frame event falls while the step of bound 2 extends the
/// floating context, after the base case of bounds 0..=2. The pin: a
/// clean close at `k = 2` answers every depth exactly once across the
/// degrade/resume cycle, two from the bank and one solver query;
/// re-running a skipped depth would inflate either count. The step's
/// property literals are solve assumptions, so the step solver never
/// retires a clause.
#[test]
fn kinduction_resume_skips_completed_step_depths() {
    let ind2 = Industry2::new(Industry2Config::small());
    let prop = ind2.invariant;
    // Reference: closes at k = 2 (see the differential suite).
    let governor = ResourceGovernor::unlimited().with_fault(FaultSite::Frame, 5);
    let mut engine = BmcEngine::new(&ind2.design, ki_engine_opts(governor));
    let degraded = engine.check(prop, 10).expect("run").verdict;
    let BmcVerdict::Unknown {
        reason,
        deepest_clean_bound,
    } = degraded
    else {
        panic!("the 5th frame event must interrupt the loop, got {degraded:?}");
    };
    assert_eq!(reason, ExhaustionReason::Cancelled);
    assert_eq!(
        deepest_clean_bound,
        Some(2),
        "the base case of bounds 0..=2 and the steps of bounds 0 and 1 \
         completed before the trip"
    );
    assert_eq!(
        (engine.step_queries(), engine.backward_simulated()),
        (0, 2),
        "the bank answered the steps of bounds 0 and 1"
    );
    engine.set_governor(ResourceGovernor::unlimited());
    let resumed = engine.check(prop, 10).expect("resume").verdict;
    assert!(
        matches!(resumed, BmcVerdict::Proved { k: 2 }),
        "the invariant is 2-inductive: {resumed:?}"
    );
    assert_eq!(
        (engine.step_queries(), engine.backward_simulated()),
        (1, 2),
        "each step depth 0..=2 must be answered exactly once across the \
         degrade/resume cycle"
    );
    let (_, step) = engine.floating_solver_stats().expect("a step context");
    assert_eq!(
        step.retired_clauses, 0,
        "step queries assume their property literals; none is a clause"
    );
}

/// At a k-induction counterexample bound the step never runs, and nothing
/// the step side does can take the counterexample away. The base case
/// and the step poll one fault counter. The floating bank answers the
/// step of every bound below the counterexample bound `c` without a
/// frame event, so the base case's `c + 1` frame events are all the run
/// takes, and a fault armed at the next one (the `c + 2`-th) must leave
/// the counterexample standing. Either run answers one step per bound
/// below `c`, every one from the bank.
#[test]
fn kinduction_counterexample_bound_runs_no_step() {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::InvertedComparison,
    });
    let prop = qs.p1.0 as usize;
    let bound = qs.cycle_bound();
    let mut engine = BmcEngine::new(&qs.design, ki_engine_opts(ResourceGovernor::unlimited()));
    let reference = engine.check(prop, bound).expect("reference").verdict;
    let BmcVerdict::Counterexample(trace) = &reference else {
        panic!("P1 must fail under the inverted comparison: {reference:?}");
    };
    let c = trace.frames.len() - 1;
    assert_eq!(c, 19, "the counterexample bound");
    assert_eq!(
        (engine.step_queries(), engine.backward_simulated()),
        (0, c as u64),
        "one step per bound below {c}"
    );
    let governor = ResourceGovernor::unlimited().with_fault(FaultSite::Frame, c as u64 + 2);
    let mut engine = BmcEngine::new(&qs.design, ki_engine_opts(governor));
    let verdict = engine.check(prop, bound).expect("run").verdict;
    assert_eq!(
        verdict_shape(&verdict),
        verdict_shape(&reference),
        "{verdict:?}"
    );
    assert_eq!(
        (engine.step_queries(), engine.backward_simulated()),
        (0, c as u64),
        "one step per bound below {c}"
    );
}

/// Differential soundness of partial reductions: a fault inside the
/// rewrite or fraig preprocessing leaves a partially reduced model
/// (only proven merges committed), and checking that model must still
/// reproduce the reference verdicts — a counterexample at the same
/// depth and the proof at the same diameter.
#[test]
fn degraded_preprocessing_stays_sound() {
    let buggy = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 4,
        data_width: 3,
        bug: Bug::InvertedComparison,
    });
    let clean = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: 3,
        data_width: 1,
        bug: Bug::None,
    });
    let workloads = [
        ("buggy_p1", &buggy, buggy.p1.0 as usize, false),
        ("clean_p1", &clean, clean.p1.0 as usize, true),
    ];
    for (name, qs, prop, proofs) in workloads {
        let bound = qs.cycle_bound();
        let reference = {
            let mut engine =
                BmcEngine::new(&qs.design, opts(ResourceGovernor::unlimited(), proofs));
            engine.check(prop, bound).expect("reference").verdict
        };
        for (site, n) in [
            (FaultSite::RewriteIteration, 1),
            (FaultSite::FraigCheck, 1),
            (FaultSite::FraigCheck, 10),
            (FaultSite::FraigMerge, 3),
        ] {
            // The fault trips during `BmcEngine::new` preprocessing; the
            // truncated pass must leave a semantics-preserving model.
            let governor = ResourceGovernor::unlimited().with_fault(site, n);
            let mut engine = BmcEngine::new(&qs.design, opts(governor, proofs));
            engine.set_governor(ResourceGovernor::unlimited());
            let run = engine.check(prop, bound).expect("no spurious traces");
            assert_eq!(
                verdict_shape(&reference),
                verdict_shape(&run.verdict),
                "{name} ({site:?}, {n}): partial reduction changed the verdict — \
                 reference {reference:?}, got {:?}",
                run.verdict
            );
        }
    }
}
