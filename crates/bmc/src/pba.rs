//! Proof-based abstraction driver (Sections 2.2 and 4.3 of the paper).
//!
//! [`discover`] runs the falsification loop of BMC with per-latch and
//! per-memory selectors, accumulating *latch reasons* `LR_i` from every
//! refutation. Following ref. \[10\], it stops when the reason set has been
//! stable for a configured number of depths and returns an
//! [`AbstractionSpec`] naming the latches and memory modules the proofs
//! actually used; everything else can be freed in a *reduced model*.
//!
//! [`iterative_abstraction`] repeats discovery on progressively more
//! abstract models until the kept set reaches a fixpoint — the paper's
//! iterative abstraction, which is what lets the quicksort array module be
//! dropped entirely when checking the stack-only property P2 (Table 2).

use std::time::Duration;

use emm_aig::{Design, FraigConfig, RewriteConfig};
use emm_core::{Job, JobResult, Pool};

use crate::engine::{AbstractionSpec, BmcEngine, BmcVerdict};
use crate::model::ReducedModel;
use crate::options::{PipelineOptions, VerifyOptions};

/// PBA discovery configuration: the two discovery knobs plus the shared
/// [`PipelineOptions`] block every engine the drivers construct inherits
/// (preprocessing, budgets, the governor). Pipeline knobs are set on the
/// embedded block:
///
/// ```
/// use emm_bmc::pba::PbaConfig;
/// use emm_bmc::PipelineOptions;
/// use emm_aig::RewriteConfig;
///
/// let config = PbaConfig::default()
///     .stability_depth(5)
///     .max_depth(50)
///     .pipeline(PipelineOptions {
///         rewrite: RewriteConfig::wide(),
///         ..PipelineOptions::default()
///     });
/// assert_eq!(config.stability_depth, 5);
/// ```
#[derive(Clone, Debug)]
pub struct PbaConfig {
    /// Depths the reason set must remain unchanged before stopping (the
    /// paper uses 10 for Table 2).
    pub stability_depth: usize,
    /// Hard depth bound for discovery.
    pub max_depth: usize,
    /// The shared pipeline knobs. EMM selector granularity is forced on
    /// internally; the rewrite/fraig passes run **once** per multi-engine
    /// driver (see [`ReducedModel`]) and are disabled on the per-engine
    /// configs; `incremental` keeps the depth-by-depth discovery loop
    /// linear in solver calls instead of quadratic.
    pub pipeline: PipelineOptions,
}

impl Default for PbaConfig {
    fn default() -> Self {
        PbaConfig {
            stability_depth: 10,
            max_depth: 100,
            pipeline: PipelineOptions::default(),
        }
    }
}

impl PbaConfig {
    /// Sets the stability window.
    pub fn stability_depth(mut self, depth: usize) -> Self {
        self.stability_depth = depth;
        self
    }

    /// Sets the hard discovery depth bound.
    pub fn max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth;
        self
    }

    /// Replaces the whole pipeline-options block.
    pub fn pipeline(mut self, pipeline: PipelineOptions) -> Self {
        self.pipeline = pipeline;
        self
    }
}

/// Applies the configured rewrite and fraig passes once, returning the
/// model every engine of a multi-engine driver should share (with the
/// per-engine passes switched off in the returned config).
fn prereduce<'d>(
    design: &'d Design,
    config: &PbaConfig,
    workers: usize,
) -> (ReducedModel<'d>, PbaConfig) {
    let reduced = ReducedModel::reduce(
        design,
        &config.pipeline.rewrite,
        &config.pipeline.fraig,
        &config.pipeline.governor,
        workers,
    );
    let mut config = config.clone();
    config.pipeline.fraig = FraigConfig::disabled();
    config.pipeline.rewrite = RewriteConfig::disabled();
    (reduced, config)
}

/// Outcome of a discovery run.
#[derive(Clone, Debug)]
pub struct PbaDiscovery {
    /// The abstraction found (kept latches/memories).
    pub abstraction: AbstractionSpec,
    /// Depth at which the reason set became stable, if it did.
    pub stable_at: Option<usize>,
    /// Depth reached by the run.
    pub depth_reached: usize,
    /// `true` when discovery was cut short by a counterexample (the
    /// property fails; abstraction is moot).
    pub found_counterexample: bool,
    /// Wall time of the discovery run.
    pub elapsed: Duration,
}

/// Runs PBA reason discovery for `prop`, stopping at reason-set stability.
///
/// Discovery runs depth by depth so the stability criterion can be applied
/// between depths; each depth is one engine `check` call bounded to that
/// depth (the engine is incremental, so no work is repeated).
///
/// # Errors
///
/// Propagates [`crate::BmcError`] from the engine (spurious traces).
pub fn discover(
    design: &Design,
    prop: usize,
    config: &PbaConfig,
) -> Result<PbaDiscovery, crate::BmcError> {
    discover_within(design, prop, config, None)
}

/// Like [`discover`], but starting from a prior abstraction: only kept
/// latches/memories are modeled, so the reason set can only shrink.
pub fn discover_within(
    design: &Design,
    prop: usize,
    config: &PbaConfig,
    within: Option<&AbstractionSpec>,
) -> Result<PbaDiscovery, crate::BmcError> {
    let started = std::time::Instant::now();
    let mut engine = BmcEngine::new(
        design,
        VerifyOptions::default()
            .pipeline(config.pipeline.clone())
            .validate_traces(false)
            .abstraction(within.cloned())
            .pba_discovery(true),
    );
    let mut last_reasons: (Vec<usize>, Vec<usize>) = (Vec::new(), Vec::new());
    let mut stable_for = 0usize;
    let mut stable_at = None;
    let mut found_ce = false;
    let mut depth_reached = 0;
    for depth in 0..=config.max_depth {
        let run = engine.check(prop, depth)?;
        depth_reached = depth;
        match run.verdict {
            BmcVerdict::Counterexample(_) => {
                found_ce = true;
                break;
            }
            BmcVerdict::Unknown { .. } => break,
            _ => {}
        }
        let reasons = (run.latch_reasons.clone(), run.memory_reasons.clone());
        if depth > 0 && reasons == last_reasons {
            stable_for += 1;
            if stable_for >= config.stability_depth {
                stable_at = Some(depth);
                last_reasons = reasons;
                break;
            }
        } else {
            stable_for = 0;
        }
        last_reasons = reasons;
    }
    let mut kept_latches = vec![false; design.num_latches()];
    for &l in &last_reasons.0 {
        kept_latches[l] = true;
    }
    let mut kept_memories = vec![false; design.memories().len()];
    for &m in &last_reasons.1 {
        kept_memories[m] = true;
    }
    // Never keep less than the prior abstraction allowed.
    if let Some(w) = within {
        for (k, &was) in kept_latches.iter_mut().zip(&w.kept_latches) {
            *k = *k && was;
        }
        for (k, &was) in kept_memories.iter_mut().zip(&w.kept_memories) {
            *k = *k && was;
        }
    }
    Ok(PbaDiscovery {
        abstraction: AbstractionSpec {
            kept_latches,
            kept_memories,
        },
        stable_at,
        depth_reached,
        found_counterexample: found_ce,
        elapsed: started.elapsed(),
    })
}

/// Iterative abstraction (ref. \[10\]): repeat discovery on progressively
/// more abstract models until the kept sets stop shrinking or `max_iters`
/// runs have been performed.
///
/// # Errors
///
/// Propagates engine errors from any iteration.
pub fn iterative_abstraction(
    design: &Design,
    prop: usize,
    config: &PbaConfig,
    max_iters: usize,
) -> Result<PbaDiscovery, crate::BmcError> {
    let (reduced, config) = prereduce(design, config, 0);
    let (design, config) = (reduced.model(), &config);
    let mut current = discover(design, prop, config)?;
    if current.found_counterexample {
        return Ok(current);
    }
    for _ in 1..max_iters {
        let next = discover_within(design, prop, config, Some(&current.abstraction))?;
        if next.found_counterexample
            || next.abstraction.num_kept_latches() >= current.abstraction.num_kept_latches()
        {
            break;
        }
        current = next;
    }
    Ok(current)
}

/// Outcome of the discover-then-prove loop.
#[derive(Clone, Debug)]
pub struct AbstractProof {
    /// The abstraction that supported the proof.
    pub abstraction: AbstractionSpec,
    /// The proof obtained on the reduced model.
    pub verdict: crate::BmcVerdict,
    /// Discovery/refinement rounds taken.
    pub rounds: usize,
}

/// Discovers an abstraction, attempts the proof on the reduced model, and
/// refines when the reduced model produces a counterexample deeper than the
/// discovery depth — the outer loop the paper's methodology implies: PBA
/// "preserves the correctness of a property **up to a certain analysis
/// depth**", so a proof attempt beyond that depth may require more reasons.
///
/// Returns early with the counterexample if one is found on the *concrete*
/// model during discovery (the property simply fails).
///
/// # Errors
///
/// Propagates engine errors.
pub fn discover_and_prove(
    design: &Design,
    prop: usize,
    config: &PbaConfig,
    proof_depth: usize,
    max_rounds: usize,
) -> Result<AbstractProof, crate::BmcError> {
    let (reduced, config) = prereduce(design, config, 0);
    let design = reduced.model();
    let mut config = config;
    let mut rounds = 0;
    loop {
        rounds += 1;
        let disc = discover(design, prop, &config)?;
        if disc.found_counterexample {
            // Re-run concretely to hand back a real, validated trace —
            // deliberately without the discovery budgets/wall limit, so
            // the witness search is not cut short.
            let mut engine = BmcEngine::new(
                design,
                VerifyOptions::default()
                    .emm(config.pipeline.emm)
                    .fraig(config.pipeline.fraig)
                    .rewrite(config.pipeline.rewrite)
                    .incremental(config.pipeline.incremental),
            );
            let run = engine.check(prop, disc.depth_reached)?;
            return Ok(AbstractProof {
                abstraction: disc.abstraction,
                verdict: run.verdict,
                rounds,
            });
        }
        let proof_options = VerifyOptions::default()
            .pipeline(config.pipeline.clone())
            .proofs(true)
            .validate_traces(false)
            .abstraction(Some(disc.abstraction.clone()));
        // The proof attempt honors the configured proving engine: the
        // bounded termination checks, or the k-induction closure (which
        // supports frozen abstractions through the same masks).
        let run = match config.pipeline.proof_engine {
            crate::options::ProofEngine::Bounded => {
                BmcEngine::new(design, proof_options).check(prop, proof_depth)?
            }
            crate::options::ProofEngine::KInduction => {
                crate::KInduction::new(design, proof_options).check(prop, proof_depth)?
            }
        };
        match run.verdict {
            crate::BmcVerdict::Counterexample(ref trace)
                if rounds < max_rounds && trace.depth() > disc.depth_reached =>
            {
                // The abstraction was too aggressive for depths beyond the
                // discovery window: extend discovery past the CE depth.
                config.stability_depth += config.stability_depth.max(4);
                config.max_depth = config.max_depth.max(trace.depth() + config.stability_depth);
                continue;
            }
            verdict => {
                return Ok(AbstractProof {
                    abstraction: disc.abstraction,
                    verdict,
                    rounds,
                })
            }
        }
    }
}

/// The placeholder result of a job the pool drained without running
/// (its governor was cancelled before the job was picked up): keep
/// everything — always sound — and report no progress.
fn cancelled_discovery(design: &Design) -> PbaDiscovery {
    PbaDiscovery {
        abstraction: AbstractionSpec::keep_all(design),
        stable_at: None,
        depth_reached: 0,
        found_counterexample: false,
        elapsed: Duration::ZERO,
    }
}

/// The per-job configuration of the parallel drivers: the shared config
/// with a [forked](emm_sat::ResourceGovernor::fork) governor, so each job
/// counts its own fault-injection events deterministically (independent
/// of how jobs interleave across workers) while still observing a
/// cancellation of the parent governor.
fn fork_config(config: &PbaConfig) -> PbaConfig {
    let mut forked = config.clone();
    forked.pipeline.governor = config.pipeline.governor.fork();
    forked
}

/// Runs [`discover`] for every property in `props` as one independent job
/// per property on `pool`, sharing one rewrite/fraig pre-reduction across
/// all of them. Each job builds its own engine (own solver, own contexts)
/// over the shared reduced model with a
/// [forked](emm_sat::ResourceGovernor::fork) governor; results come back
/// merged **by job index** — `result[i]` belongs to `props[i]` — so the
/// output is identical at every pool worker count, fault injection
/// included.
///
/// The shared pre-reduction runs its fraig sweep on `pool` too
/// ([`ReducedModel::reduce`] with `pool.workers()` workers); it yields
/// the same model at every worker count, and the same model the
/// single-property [`discover`] gets through [`BmcEngine::new`].
///
/// # Errors
///
/// Propagates the first engine error in `props` order (spurious traces).
///
/// # Panics
///
/// Re-panics if a job panicked on its worker.
pub fn discover_all(
    design: &Design,
    props: &[usize],
    config: &PbaConfig,
    pool: &Pool,
) -> Result<Vec<PbaDiscovery>, crate::BmcError> {
    let (reduced, config) = prereduce(design, config, pool.workers());
    let model = reduced.model();
    let jobs: Vec<Job<'_, Result<PbaDiscovery, crate::BmcError>>> = props
        .iter()
        .map(|&prop| {
            let cfg = fork_config(&config);
            Box::new(move || discover(model, prop, &cfg)) as Job<'_, _>
        })
        .collect();
    pool.run(jobs)
        .into_iter()
        .map(|r| match r {
            JobResult::Done(d) => d,
            JobResult::Skipped => Ok(cancelled_discovery(model)),
            JobResult::Panicked(msg) => panic!("pba discovery job panicked: {msg}"),
        })
        .collect()
}

/// Runs [`discover_and_prove`] for every property in `props` as one
/// independent job per property on `pool`, with the same shared
/// pre-reduction, per-job forked governors, and by-index result merging
/// as [`discover_all`].
///
/// # Errors
///
/// Propagates the first engine error in `props` order.
///
/// # Panics
///
/// Re-panics if a job panicked on its worker.
pub fn discover_and_prove_all(
    design: &Design,
    props: &[usize],
    config: &PbaConfig,
    proof_depth: usize,
    max_rounds: usize,
    pool: &Pool,
) -> Result<Vec<AbstractProof>, crate::BmcError> {
    let (reduced, config) = prereduce(design, config, pool.workers());
    let model = reduced.model();
    let jobs: Vec<Job<'_, Result<AbstractProof, crate::BmcError>>> = props
        .iter()
        .map(|&prop| {
            let cfg = fork_config(&config);
            Box::new(move || discover_and_prove(model, prop, &cfg, proof_depth, max_rounds))
                as Job<'_, _>
        })
        .collect();
    pool.run(jobs)
        .into_iter()
        .map(|r| match r {
            JobResult::Done(d) => d,
            JobResult::Skipped => Ok(AbstractProof {
                abstraction: AbstractionSpec::keep_all(model),
                verdict: BmcVerdict::Unknown {
                    reason: emm_sat::ExhaustionReason::Cancelled,
                    deepest_clean_bound: None,
                },
                rounds: 0,
            }),
            JobResult::Panicked(msg) => panic!("pba prove job panicked: {msg}"),
        })
        .collect()
}
