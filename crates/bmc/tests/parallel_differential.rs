//! Differential tests of the parallel verification paths: the fraig
//! sweep, the parallel PBA dispatch, and the verification server
//! must produce **bit-identical** results at every pool worker count —
//! with and without deterministic fault injection — because every
//! parallel schedule commits its merges/results in a canonical order
//! that does not depend on thread interleaving.
//!
//! The CI `parallel` matrix leg runs this suite under `EMM_WORKERS=1`
//! and `EMM_WORKERS=4`; the suite itself additionally sweeps explicit
//! worker counts so a single run covers 1/2/4 (and 0 for the shared
//! reduction).

use std::sync::Arc;

use emm_aig::{fraig_design_governed, Design, FraigConfig, LatchInit, RewriteConfig};
use emm_bmc::pba::{self, PbaConfig};
use emm_bmc::{
    PipelineOptions, ReducedModel, VerificationServer, VerifyBudget, VerifyOptions, VerifyRequest,
};
use emm_core::Pool;
use emm_sat::{FaultSite, ResourceGovernor};

/// A counter design with redundant logic (fraig fodder) and a mix of
/// reachable and unreachable properties.
fn redundant_counter() -> Design {
    counter(4)
}

/// [`redundant_counter`] at `width` bits. From about a dozen bits on,
/// the property comparators hold rare-valued nodes that random
/// simulation cannot tell from constants, so fraig also refutes
/// candidates and refines its signatures.
fn counter(width: usize) -> Design {
    let mut d = Design::new();
    let count = d.new_latch_word("count", width, LatchInit::Zero);
    let inc_a = d.aig.inc(&count);
    // A structurally different duplicate of the same increment: an
    // adder of the constant 1, giving fraig equivalent cones to merge.
    let one = d.aig.const_word(1, width);
    let inc_b = d.aig.add(&count, &one);
    d.set_next_word(&count, &inc_a);
    let hit9_a = d.aig.eq_const(&count, 9);
    let hit9_b = d.aig.eq_const(&inc_b, 10);
    let both = d.aig.and(hit9_a, hit9_b);
    d.add_property("reaches9", both);
    let at8 = d.aig.eq_const(&count, 8);
    let inc7 = d.aig.eq_const(&inc_b, 7);
    let never = d.aig.and(at8, inc7);
    d.add_property("contradiction", never);
    d.check().expect("well-formed design");
    d
}

/// A memory-backed design so PBA has selectors to reason about.
fn memory_design() -> Design {
    let mut d = Design::new();
    let mem = d.add_memory("buf", 3, 4, emm_aig::MemInit::Zero);
    let ptr = d.new_latch_word("ptr", 3, LatchInit::Zero);
    let next = d.aig.inc(&ptr);
    d.set_next_word(&ptr, &next);
    let data = d.new_input_word("data", 4);
    let t = emm_aig::Aig::TRUE;
    d.add_write_port(mem, ptr.clone(), t, data);
    let rd = d.add_read_port(mem, ptr.clone(), t);
    let bad = d.aig.eq_const(&rd, 0xF);
    d.add_property("read_f", bad);
    let unrelated = d.new_latch_word("tick", 2, LatchInit::Zero);
    let tnext = d.aig.inc(&unrelated);
    d.set_next_word(&unrelated, &tnext);
    let stuck = d.aig.eq_const(&unrelated, 2);
    d.add_property("tick2", stuck);
    d.check().expect("well-formed design");
    d
}

/// The public entry point reduces to the same model at every worker
/// count, `0` included: there is one fraig sweep, and `0` and `1` both
/// run it inline.
#[test]
fn pooled_fraig_is_bit_identical_across_worker_counts() {
    let base = counter(16);
    let governor = ResourceGovernor::unlimited();
    let mut outcomes = Vec::new();
    for workers in [0usize, 1, 2, 4] {
        let reduced = ReducedModel::reduce(
            &base,
            &RewriteConfig::default(),
            &FraigConfig::default(),
            &governor,
            workers,
        );
        let model = reduced.model();
        outcomes.push((
            reduced.fraig_stats().copied(),
            model.num_gates(),
            format!("{:?}", model.stats()),
        ));
    }
    assert!(
        outcomes[0].0.is_some_and(|s| s.merges > 0 && s.refuted > 0),
        "fraig both merged and refined"
    );
    for (i, workers) in [1, 2, 4].into_iter().enumerate() {
        assert_eq!(
            outcomes[0],
            outcomes[i + 1],
            "0 vs {workers} workers diverged"
        );
    }
}

#[test]
fn pooled_fraig_fault_injection_is_bit_identical() {
    let base = redundant_counter();
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let governor = ResourceGovernor::unlimited().with_fault(FaultSite::FraigCheck, 2);
        let mut model = base.clone();
        let pool = Pool::new(workers);
        let stats = fraig_design_governed(&mut model, &FraigConfig::default(), &governor, &pool);
        outcomes.push((stats, model.num_gates()));
    }
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 workers diverged");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 4 workers diverged");
}

/// Flattens a discovery result into a comparable record.
fn discovery_key(d: &pba::PbaDiscovery) -> (Vec<bool>, Vec<bool>, Option<usize>, usize, bool) {
    (
        d.abstraction.kept_latches.clone(),
        d.abstraction.kept_memories.clone(),
        d.stable_at,
        d.depth_reached,
        d.found_counterexample,
    )
}

#[test]
fn parallel_pba_discovery_matches_across_worker_counts() {
    let design = memory_design();
    let props = [0usize, 1];
    let config = PbaConfig::default().stability_depth(3).max_depth(12);
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let pool = Pool::new(workers);
        let results = pba::discover_all(&design, &props, &config, &pool).expect("discovery");
        outcomes.push(results.iter().map(discovery_key).collect::<Vec<_>>());
    }
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 workers diverged");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 4 workers diverged");
}

#[test]
fn parallel_pba_fault_injection_is_deterministic() {
    let design = memory_design();
    let props = [0usize, 1];
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        // Each job forks the governor, so the fault counts each job's
        // own frames — the trip point cannot depend on scheduling.
        let config = PbaConfig::default()
            .stability_depth(3)
            .max_depth(12)
            .pipeline(PipelineOptions {
                governor: ResourceGovernor::unlimited().with_fault(FaultSite::Frame, 4),
                ..Default::default()
            });
        let pool = Pool::new(workers);
        let results = pba::discover_all(&design, &props, &config, &pool).expect("discovery");
        outcomes.push(results.iter().map(discovery_key).collect::<Vec<_>>());
    }
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 workers diverged");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 4 workers diverged");
}

/// Flattens server responses into comparable records. Traces carry no
/// `PartialEq`, so verdicts are compared through their `Debug` form.
fn response_keys(responses: &[emm_bmc::VerifyResponse]) -> Vec<(usize, String, usize, bool)> {
    responses
        .iter()
        .map(|r| {
            (
                r.id,
                format!("{:?}", r.verdict),
                r.depth_reached,
                r.error.is_some(),
            )
        })
        .collect()
}

fn submit_batch(server: &mut VerificationServer, governor: &ResourceGovernor) {
    let counter = Arc::new(redundant_counter());
    let memory = Arc::new(memory_design());
    let options = VerifyOptions::default().governor(governor.clone());
    for (design, property, max_depth) in [
        (Arc::clone(&counter), 0usize, 16usize),
        (Arc::clone(&counter), 1, 8),
        (Arc::clone(&memory), 0, 10),
        (Arc::clone(&memory), 1, 10),
        (counter, 0, 6),
    ] {
        server.submit(VerifyRequest {
            design,
            property,
            budget: VerifyBudget {
                max_depth,
                ..VerifyBudget::default()
            },
            options: options.clone(),
        });
    }
}

#[test]
fn server_responses_are_bit_identical_across_worker_counts() {
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut server = VerificationServer::new(workers);
        submit_batch(&mut server, &ResourceGovernor::unlimited());
        let responses = server.run();
        assert_eq!(server.stats().jobs, 5);
        assert_eq!(server.stats().workers, workers);
        outcomes.push(response_keys(&responses));
    }
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 workers diverged");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 4 workers diverged");
}

#[test]
fn server_fault_injection_is_deterministic() {
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let governor = ResourceGovernor::unlimited().with_fault(FaultSite::Frame, 5);
        let mut server = VerificationServer::new(workers);
        submit_batch(&mut server, &governor);
        let responses = server.run();
        outcomes.push(response_keys(&responses));
    }
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 workers diverged");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 4 workers diverged");
}

#[test]
fn server_matches_a_direct_engine() {
    let design = Arc::new(redundant_counter());
    let mut server = VerificationServer::new(2);
    let id = server.submit(VerifyRequest {
        design: Arc::clone(&design),
        property: 0,
        budget: VerifyBudget {
            max_depth: 16,
            ..VerifyBudget::default()
        },
        options: VerifyOptions::default(),
    });
    let responses = server.run();
    let mut engine = emm_bmc::BmcEngine::new(&design, VerifyOptions::default());
    let direct = engine.check(0, 16).expect("direct check");
    assert_eq!(responses[id].id, id);
    assert_eq!(
        format!("{:?}", responses[id].verdict),
        format!("{:?}", direct.verdict)
    );
}

#[test]
fn server_kinduction_matches_direct_engine_across_worker_counts() {
    // The server dispatches on ProofEngine like ModelSource::verify does;
    // k-induction jobs must be bit-identical at every worker count and
    // must agree with a direct KInduction run job-for-job.
    let counter = Arc::new(redundant_counter());
    let memory = Arc::new(memory_design());
    let options = VerifyOptions::default().proof_engine(emm_bmc::ProofEngine::KInduction);
    let jobs: Vec<(Arc<Design>, usize, usize)> = vec![
        (Arc::clone(&counter), 0, 16),
        (Arc::clone(&counter), 1, 8),
        (Arc::clone(&memory), 0, 10),
        (Arc::clone(&memory), 1, 10),
    ];
    let mut outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut server = VerificationServer::new(workers);
        for (design, property, max_depth) in &jobs {
            server.submit(VerifyRequest {
                design: Arc::clone(design),
                property: *property,
                budget: VerifyBudget {
                    max_depth: *max_depth,
                    ..VerifyBudget::default()
                },
                options: options.clone(),
            });
        }
        outcomes.push(response_keys(&server.run()));
    }
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 workers diverged");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 4 workers diverged");
    for (i, (design, property, max_depth)) in jobs.iter().enumerate() {
        let direct = emm_bmc::KInduction::new(design.as_ref(), options.clone())
            .check(*property, *max_depth)
            .expect("direct k-induction");
        assert_eq!(
            outcomes[0][i].1,
            format!("{:?}", direct.verdict),
            "job {i}: server k-induction verdict diverged from the direct engine"
        );
        assert_eq!(
            outcomes[0][i].2, direct.depth_reached,
            "job {i}: depth reached diverged"
        );
    }
}

#[test]
fn env_sized_pool_matches_explicit_pools() {
    // Under the CI matrix EMM_WORKERS is 1 or 4; either must agree with
    // an explicit single-worker pool on the fraig result.
    let base = redundant_counter();
    let governor = ResourceGovernor::unlimited();
    let mut reference = base.clone();
    let expected = fraig_design_governed(
        &mut reference,
        &FraigConfig::default(),
        &governor,
        &Pool::new(1),
    );
    let mut model = base.clone();
    let got = fraig_design_governed(
        &mut model,
        &FraigConfig::default(),
        &governor,
        &Pool::from_env(),
    );
    assert_eq!(expected, got);
    assert_eq!(reference.num_gates(), model.num_gates());
}
