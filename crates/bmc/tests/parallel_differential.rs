//! Differential tests of the parallel verification paths: the fraig
//! sweep, the parallel PBA dispatch, and the verification server
//! must produce **bit-identical** results at every pool worker count —
//! with and without deterministic fault injection — because every
//! parallel schedule commits its merges/results in a canonical order
//! that does not depend on thread interleaving.
//!
//! The suite sweeps explicit worker counts, so a single run covers
//! 1/2/4 (and 0 for the shared reduction); worker count 1 is the
//! pool's inline sequential reference.

use std::path::Path;
use std::sync::Arc;

use emm_aig::{fraig_design_governed, Design, FraigConfig, LatchInit, RewriteConfig};
use emm_bmc::pba::{self, PbaConfig};
use emm_bmc::{
    BmcEngine, BmcVerdict, ModelSource, PipelineOptions, ProofEngine, ReducedModel,
    VerificationServer, VerifyBudget, VerifyOptions, VerifyRequest,
};
use emm_core::Pool;
use emm_designs::gen::{random_design, GenConfig};
use emm_sat::{Budget, FaultSite, ResourceGovernor};

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
        let stats = fraig_design_governed(&mut model, &governor, &pool);
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
    for request in batch_requests(governor, &[ProofEngine::Bounded]) {
        server.submit(request);
    }
}

/// The batch of [`submit_batch`], each request once per engine in
/// `engines` (consecutive ids), all on one pair of design `Arc`s.
fn batch_requests(governor: &ResourceGovernor, engines: &[ProofEngine]) -> Vec<VerifyRequest> {
    let counter = Arc::new(redundant_counter());
    let memory = Arc::new(memory_design());
    let options = VerifyOptions::default().governor(governor.clone());
    let mut requests = Vec::new();
    for (design, property, max_depth) in [
        (Arc::clone(&counter), 0usize, 16usize),
        (Arc::clone(&counter), 1, 8),
        (Arc::clone(&memory), 0, 10),
        (Arc::clone(&memory), 1, 10),
        (counter, 0, 6),
    ] {
        for &engine in engines {
            requests.push(VerifyRequest {
                design: Arc::clone(&design),
                property,
                budget: VerifyBudget {
                    max_depth,
                    ..VerifyBudget::default()
                },
                options: options.clone().proof_engine(engine),
            });
        }
    }
    requests
}

/// Responses flattened as by [`response_keys`], without the ids.
type Answers = Vec<(String, usize, bool)>;

/// Runs `requests` as one batch on `workers` threads.
fn run_batch(workers: usize, requests: Vec<VerifyRequest>) -> Answers {
    let mut server = VerificationServer::new(workers);
    for request in requests {
        server.submit(request);
    }
    response_keys(&server.run())
        .into_iter()
        .map(|(_, verdict, depth, error)| (verdict, depth, error))
        .collect()
}

/// The flattened responses of one batch with `requests(&[Bounded,
/// KInduction])`, and those of one batch per engine, interleaved into
/// the same order.
fn mixed_and_single(
    workers: usize,
    requests: impl Fn(&[ProofEngine]) -> Vec<VerifyRequest>,
) -> (Answers, Answers) {
    let mixed = run_batch(
        workers,
        requests(&[ProofEngine::Bounded, ProofEngine::KInduction]),
    );
    let bounded = run_batch(workers, requests(&[ProofEngine::Bounded]));
    let kinduction = run_batch(workers, requests(&[ProofEngine::KInduction]));
    let single = bounded
        .into_iter()
        .zip(kinduction)
        .flat_map(|(b, k)| [b, k])
        .collect();
    (mixed, single)
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

    // Both engines per request in one batch: an armed fault forbids
    // sharing an engine, so every response equals the same request's in
    // a single-engine batch, at every worker count.
    let mut mixed_outcomes = Vec::new();
    for workers in [1usize, 2, 4] {
        let governor = ResourceGovernor::unlimited().with_fault(FaultSite::Frame, 5);
        let (mixed, single) = mixed_and_single(workers, |e| batch_requests(&governor, e));
        assert_eq!(mixed, single, "{workers} workers: mixed batch diverged");
        mixed_outcomes.push(mixed);
    }
    assert_eq!(
        mixed_outcomes[0], mixed_outcomes[1],
        "mixed: 1 vs 2 workers diverged"
    );
    assert_eq!(
        mixed_outcomes[0], mixed_outcomes[2],
        "mixed: 1 vs 4 workers diverged"
    );
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
        let direct = emm_bmc::BmcEngine::new(design.as_ref(), options.clone())
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

/// Requests over many reduction groups: corpus files, generated designs,
/// two `Arc`s of one design, and one design under three preprocessing
/// configurations. The server reduces each group once, as one pool batch.
fn reduction_group_requests() -> Vec<VerifyRequest> {
    let counter = Arc::new(redundant_counter());
    let mut designs = vec![
        corpus("gen_s7.aag"),
        corpus("image_filter_l4.btor2"),
        corpus("lifo_a2d2.btor2"),
        Arc::new(memory_design()),
        Arc::clone(&counter),
        Arc::new(redundant_counter()),
    ];
    designs.extend((1..=3).map(|seed| Arc::new(random_design(&GenConfig::btor2_guarded(), seed))));
    let mut no_rewrite = VerifyOptions::default();
    no_rewrite.pipeline.rewrite = RewriteConfig::disabled();
    let mut no_fraig = VerifyOptions::default();
    no_fraig.pipeline.fraig.enabled = false;
    let mut requests = Vec::new();
    let mut request = |design: &Arc<Design>, property, options: &VerifyOptions| {
        requests.push(VerifyRequest {
            design: Arc::clone(design),
            property,
            budget: VerifyBudget {
                max_depth: 8,
                ..VerifyBudget::default()
            },
            options: options.clone(),
        })
    };
    for design in &designs {
        for property in 0..design.properties().len() {
            request(design, property, &VerifyOptions::default());
        }
    }
    request(&counter, 1, &no_rewrite);
    request(&counter, 0, &no_fraig);
    request(&counter, 1, &VerifyOptions::default());
    requests
}

/// The server's pooled reductions give every request the model a
/// standalone engine reduces for itself, at every worker count; under a
/// cancelled pool governor every reduction and job is skipped alike.
#[test]
fn server_pooled_reductions_match_standalone_engines() {
    let requests = reduction_group_requests();
    let standalone: Vec<(String, usize, bool)> = requests
        .iter()
        .map(|req| {
            let run = BmcEngine::new(&req.design, req.options.clone())
                .check(req.property, req.budget.max_depth)
                .expect("standalone check");
            (format!("{:?}", run.verdict), run.depth_reached, false)
        })
        .collect();
    for workers in [1usize, 2, 4] {
        assert_eq!(
            run_batch(workers, requests.clone()),
            standalone,
            "{workers} workers diverged from standalone engines"
        );

        let cancelled = ResourceGovernor::unlimited();
        cancelled.cancel();
        let mut server = VerificationServer::with_pool(Pool::new(workers).with_governor(cancelled));
        for request in requests.clone() {
            server.submit(request);
        }
        for response in server.run() {
            assert!(
                matches!(
                    response.verdict,
                    BmcVerdict::Unknown {
                        reason: emm_sat::ExhaustionReason::Cancelled,
                        deepest_clean_bound: None,
                    }
                ),
                "{workers} workers: job {} ran under a cancelled pool",
                response.id
            );
            assert!(response.error.is_none());
        }
    }
}

/// A corpus file, loaded through the frontend.
fn corpus(name: &str) -> Arc<Design> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../corpus")
        .join(name);
    ModelSource::from_path(&path)
        .load()
        .unwrap_or_else(|e| panic!("cannot load {}: {e}", path.display()))
}

/// A verdict's class and depth. Two engines that find a counterexample
/// at the same bound may find different traces, so a trace is checked
/// by replay instead.
fn outcome(verdict: &BmcVerdict) -> String {
    match verdict {
        BmcVerdict::Counterexample(trace) => format!("cex@{}", trace.depth()),
        other => format!("{other:?}"),
    }
}

/// One job of a mixed-engine batch.
struct MixedJob {
    design: Arc<Design>,
    property: usize,
    engine: ProofEngine,
    max_depth: usize,
    solve: Budget,
}

/// Corpus files plus seeded generated designs, every property under both
/// engines in one batch. Most pairs share the bounded engine as the
/// k-induction base case.
fn mixed_jobs() -> Vec<MixedJob> {
    let job = |design: &Arc<Design>, property, engine, max_depth, solve: &Budget| MixedJob {
        design: Arc::clone(design),
        property,
        engine,
        max_depth,
        solve: solve.clone(),
    };
    let mut designs = vec![
        corpus("gen_s7.aag"),
        corpus("image_filter_l4.btor2"),
        corpus("lifo_a2d2.btor2"),
    ];
    designs.extend((1..=3).map(|seed| Arc::new(random_design(&GenConfig::btor2_guarded(), seed))));
    let mut jobs = Vec::new();
    for (d, design) in designs.iter().enumerate() {
        for property in 0..design.properties().len() {
            // Unequal depths on two image-filter pairs: k-induction goes
            // past the bounded run's last bound to its counterexample
            // (p3, cex@7), or stops short of the bounded run's (p0,
            // cex@4).
            let depths = match (d, property) {
                (1, 3) => [4, 12],
                (1, 0) => [10, 3],
                _ => [10, 10],
            };
            let mut pair = [ProofEngine::Bounded, ProofEngine::KInduction]
                .into_iter()
                .zip(depths)
                .map(|(engine, max_depth)| {
                    job(design, property, engine, max_depth, &Budget::unlimited())
                })
                .collect::<Vec<_>>();
            // Submission order does not decide the pairing.
            if d % 2 == 1 {
                pair.reverse();
            }
            jobs.extend(pair);
        }
    }
    // A pair on a 3-conflict budget: the bounded run ends `Unknown` at
    // bound 3, where a standalone k-induction base case gives up too.
    let tight = Budget::conflicts(3);
    jobs.push(job(&designs[1], 0, ProofEngine::Bounded, 10, &tight));
    jobs.push(job(&designs[1], 0, ProofEngine::KInduction, 10, &tight));
    jobs
}

#[test]
fn server_mixed_engine_batches_match_standalone_engines() {
    let jobs = mixed_jobs();
    let options = |engine| VerifyOptions::default().proof_engine(engine);
    let standalone: Vec<(String, usize)> = jobs
        .iter()
        .map(|job| {
            let pipeline = PipelineOptions::default();
            let reduced = ReducedModel::reduce(
                &job.design,
                &pipeline.rewrite,
                &pipeline.fraig,
                &pipeline.governor,
                0,
            );
            let options = options(job.engine).solve_budget(job.solve.clone());
            let run = BmcEngine::with_model(&reduced, options)
                .check(job.property, job.max_depth)
                .expect("standalone run");
            (outcome(&run.verdict), run.depth_reached)
        })
        .collect();
    let found = |engine, prefix: &str| {
        jobs.iter()
            .zip(&standalone)
            .any(|(job, (verdict, _))| job.engine == engine && verdict.starts_with(prefix))
    };
    assert!(
        found(ProofEngine::Bounded, "cex@"),
        "a bounded run finds a cex"
    );
    assert!(
        found(ProofEngine::KInduction, "Proved"),
        "a k-induction run proves"
    );
    assert!(
        found(ProofEngine::Bounded, "Unknown"),
        "a bounded run gives up"
    );

    for workers in [1usize, 2, 4] {
        let mut server = VerificationServer::new(workers);
        for job in &jobs {
            server.submit(VerifyRequest {
                design: Arc::clone(&job.design),
                property: job.property,
                budget: VerifyBudget {
                    max_depth: job.max_depth,
                    solve: job.solve.clone(),
                    wall_limit: None,
                },
                options: options(job.engine),
            });
        }
        let responses = server.run();
        assert_eq!(responses.len(), jobs.len());
        for (id, ((job, response), expected)) in
            jobs.iter().zip(&responses).zip(&standalone).enumerate()
        {
            let label = format!(
                "{workers} workers, job {id} ({:?} p{})",
                job.engine, job.property
            );
            assert_eq!(response.id, id, "{label}");
            assert_eq!(response.error, None, "{label}");
            assert_eq!(
                (outcome(&response.verdict), response.depth_reached),
                *expected,
                "{label}: diverged from the standalone engine"
            );
            if let BmcVerdict::Counterexample(trace) = &response.verdict {
                assert_eq!(trace.property, job.property, "{label}");
                trace
                    .validate(&job.design)
                    .unwrap_or_else(|e| panic!("{label}: trace does not replay: {e}"));
            }
        }
    }
}

#[test]
fn server_pairs_that_must_not_share_match_single_engine_batches() {
    // A mixed batch whose pairs may not share an engine (proofs on, a
    // wall limit, differing solve budgets) answers every request exactly
    // as a single-engine batch does. An armed fault is covered by
    // `server_fault_injection_is_deterministic`.
    type Vary = fn(&mut VerifyRequest);
    let variants: [(&str, Vary); 4] = [
        ("bounded proofs on", |r| {
            if r.options.pipeline.proof_engine == ProofEngine::Bounded {
                r.options.proofs = true;
            }
        }),
        ("proofs on both sides", |r| r.options.proofs = true),
        ("wall limit", |r| {
            r.budget.wall_limit = Some(std::time::Duration::from_secs(600))
        }),
        ("differing solve budgets", |r| {
            if r.options.pipeline.proof_engine == ProofEngine::Bounded {
                r.budget.solve = Budget::conflicts(1 << 20);
            }
        }),
    ];
    let governor = ResourceGovernor::unlimited();
    for (what, vary) in variants {
        let varied = |engines: &[ProofEngine]| {
            let mut requests = batch_requests(&governor, engines);
            requests.iter_mut().for_each(vary);
            requests
        };
        let (mixed, single) = mixed_and_single(2, varied);
        assert_eq!(mixed, single, "{what}: mixed batch diverged");
    }
}
