//! The four workloads and the checks on their answers.
//!
//! Each workload builds its designs in `setup`, runs every job once per
//! `pass`, and checks every answer without trusting the engine that gave
//! it: pinned verdicts, counterexamples replayed on the design as built
//! or parsed, and bounded against k-induction verdicts. The traced run
//! also calls `probe`, which makes the public calls a pass cannot see
//! into (the dump a proof rests on, the layers inside the server).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use emm_aig::btor2::write_btor2;
use emm_aig::Design;
use emm_bmc::{
    dump_bmc_cnf, BmcEngine, BmcError, BmcRun, BmcVerdict, KInduction, ModelSource, ProofEngine,
    ReducedModel, VerificationServer, VerifyBudget, VerifyOptions,
};
use emm_designs::gen::{random_design, GenConfig};
use emm_designs::quicksort::{Bug, QuickSort, QuickSortConfig};
use emm_sat::SolveResult;

use crate::trace::Tracer;

/// Workload names, as `--workload` takes them.
pub const NAMES: [&str; 4] = ["table-proofs", "bug-hunt", "corpus-batch", "cnf-export"];

/// Per-layer measurements of one scope (the set-up repetitions, the
/// traced passes, or the probe): sums, averaged per repetition at the
/// end, and peaks, kept as the maximum.
#[derive(Debug, Default)]
pub struct Layers {
    pub sums: BTreeMap<&'static str, f64>,
    pub peaks: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.sums.entry(name).or_default() += value;
    }

    pub fn peak(&mut self, name: &'static str, value: f64) {
        let entry = self.peaks.entry(name).or_insert(value);
        *entry = entry.max(value);
    }
}

/// One finished job.
#[derive(Debug)]
pub struct JobResult {
    pub key: String,
    pub seconds: f64,
    /// Whether the job's input is drawn from the seed. Such jobs differ
    /// between seeds, so their times stay out of `verdict_s_p50`.
    pub seeded: bool,
    /// Why the answer was rejected; `None` when it checked out.
    pub error: Option<String>,
    /// Deterministic counts that must repeat exactly on every pass.
    pub fingerprint: String,
}

pub trait Workload {
    /// Worker threads the workload's jobs run on.
    fn workers(&self) -> usize {
        1
    }

    /// Builds or parses the designs. Runs several times; the last
    /// result is the one the passes use.
    fn setup(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String>;

    /// Runs every job once, in an order drawn from `rng`.
    fn pass(&mut self, rng: &mut Rng, tracer: &mut Tracer, layers: &mut Layers) -> Vec<JobResult>;

    /// Traced run only: calls that isolate layers a pass cannot see.
    fn probe(&mut self, _tracer: &mut Tracer, _layers: &mut Layers) -> Vec<JobResult> {
        Vec::new()
    }
}

/// The workload named `name`, reading its inputs under `root`.
pub fn by_name(name: &str, seed: u64, root: &Path) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "table-proofs" => Box::new(QuickSortJobs::new(&TABLE_PROOFS, true)),
        "bug-hunt" => Box::new(QuickSortJobs::new(&BUG_HUNT, false)),
        "corpus-batch" => Box::new(CorpusBatch::new(root.join("corpus"), seed)?),
        "cnf-export" => Box::new(CnfExport { design: None }),
        other => {
            return Err(format!(
                "unknown workload {other:?}; expected one of {}",
                NAMES.join(", ")
            ))
        }
    })
}

/// SplitMix64: a small seeded generator for submission orders and the
/// generated designs' seeds.
#[derive(Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Runs `f` and returns its result with its wall time in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let result = f();
    (result, started.elapsed().as_secs_f64())
}

/// A verdict as the pinned tables write it: `proof@D`, `cex@D`,
/// `proved@K`, `bound` or `unknown:<reason>`.
pub fn verdict_name(v: &BmcVerdict) -> String {
    match v {
        BmcVerdict::Proof { depth, .. } => format!("proof@{depth}"),
        BmcVerdict::Counterexample(t) => format!("cex@{}", t.depth()),
        BmcVerdict::BoundReached => "bound".into(),
        BmcVerdict::Proved { k } => format!("proved@{k}"),
        BmcVerdict::Unknown { reason, .. } => format!("unknown:{}", reason.as_str()),
    }
}

/// Checks a verdict: an `unknown:*` answer is rejected, a counterexample
/// must be for `property` and replay on `design` (the design as built or
/// parsed, not the engine's reduced copy), and when `expect` is given
/// the verdict must equal it.
fn check_verdict(
    verdict: &BmcVerdict,
    property: usize,
    design: &Design,
    expect: Option<&str>,
) -> Option<String> {
    let name = verdict_name(verdict);
    if verdict.is_unknown() {
        return Some(format!("no answer: {name}"));
    }
    if let Some(expect) = expect.filter(|e| *e != name) {
        return Some(format!("expected {expect}, got {name}"));
    }
    match verdict {
        BmcVerdict::Counterexample(t) if t.property != property => Some(format!(
            "trace is for property {}, not {property}",
            t.property
        )),
        BmcVerdict::Counterexample(t) => t
            .validate(design)
            .err()
            .map(|e| format!("{name} does not replay on the design: {e}")),
        _ => None,
    }
}

/// Whether a bounded and a k-induction verdict for one property, both
/// over the same depth budget, contradict: one finds a counterexample
/// the other does not, or they find it at different depths.
pub fn contradicts(bounded: &str, induction: &str) -> bool {
    bounded.strip_prefix("cex@") != induction.strip_prefix("cex@")
}

/// Adds one bounded-engine run's layer figures. The reduction the engine
/// ran is added separately (`add_reduce`), since engines sharing a
/// reduced model report its times too.
fn add_engine(layers: &mut Layers, engine: &BmcEngine<'_>, run: &BmcRun) {
    let phases = &run.phase_seconds;
    layers.add("engine.check_s", run.elapsed.as_secs_f64());
    layers.add("engine.encode_s", phases.encode);
    layers.add("engine.solve_s", phases.solve);
    layers.add("engine.inprocess_s", phases.inprocess);
    let bound_max = run.per_bound_seconds.iter().copied().fold(0.0, f64::max);
    layers.peak("engine.bound_s_max", bound_max);
    let (_, stats) = engine.solver_stats();
    layers.add("solver.conflicts", stats.conflicts as f64);
    layers.add("solver.decisions", stats.decisions as f64);
    layers.add("solver.propagations", stats.propagations as f64);
    layers.add("inprocess.rounds", stats.inprocess_rounds as f64);
    layers.add(
        "inprocess.lits_removed",
        (stats.vivified_literals + stats.subsumed_literals) as f64,
    );
}

fn add_reduce(layers: &mut Layers, (rewrite_s, fraig_s): (f64, f64), ands_out: usize) {
    layers.add("reduce.rewrite_s", rewrite_s);
    layers.add("reduce.fraig_s", fraig_s);
    layers.add("reduce.ands_out", ands_out as f64);
}

/// Deterministic counts of a bounded-engine run.
fn engine_fingerprint(engine: &BmcEngine<'_>, run: &BmcRun) -> String {
    let (vars, s) = engine.solver_stats();
    format!(
        "{} depth={} ands={} vars={vars} clauses={} conflicts={} decisions={} propagations={}",
        verdict_name(&run.verdict),
        run.depth_reached,
        engine.model().num_gates(),
        s.original_clauses,
        s.conflicts,
        s.decisions,
        s.propagations
    )
}

// ---------------------------------------------------------------------
// table-proofs and bug-hunt: the paper's quicksort, proofs and bugs.

/// Quicksort at AW=6, DW=4 with `n` elements, checked to the design's
/// cycle bound.
fn quicksort_config(n: usize, bug: Bug) -> QuickSortConfig {
    QuickSortConfig {
        n,
        addr_width: 6,
        data_width: 4,
        bug,
    }
}

/// One quicksort job: which design, which property, and the pinned verdict.
#[derive(Debug)]
struct QuickSortJob {
    key: &'static str,
    n: usize,
    bug: Bug,
    p2: bool,
    expect: &'static str,
}

const TABLE_PROOFS: [QuickSortJob; 2] = [
    QuickSortJob {
        key: "quicksort:p1",
        n: 3,
        bug: Bug::None,
        p2: false,
        expect: "proof@30",
    },
    QuickSortJob {
        key: "quicksort:p2",
        n: 3,
        bug: Bug::None,
        p2: true,
        expect: "proof@30",
    },
];

const BUG_HUNT: [QuickSortJob; 2] = [
    QuickSortJob {
        key: "quicksort-inverted-comparison:p1",
        n: 4,
        bug: Bug::InvertedComparison,
        p2: false,
        expect: "cex@29",
    },
    QuickSortJob {
        key: "quicksort-missing-empty-check:p2",
        n: 4,
        bug: Bug::MissingEmptyCheck,
        p2: true,
        expect: "cex@26",
    },
];

/// Depth of the `table-proofs` probe's P1 dump: the proof depth, so the
/// standalone solve is the UNSAT query the proof's bound loop ends on.
const PROBE_DUMP_DEPTH: usize = 30;

struct QuickSortJobs {
    jobs: &'static [QuickSortJob],
    /// Whether the probe dumps and solves P1 (the proof workload).
    dump_probe: bool,
    designs: Vec<QuickSort>,
}

impl QuickSortJobs {
    fn new(jobs: &'static [QuickSortJob], dump_probe: bool) -> QuickSortJobs {
        QuickSortJobs {
            jobs,
            dump_probe,
            designs: Vec::new(),
        }
    }

    fn design(&self, n: usize, bug: Bug) -> &QuickSort {
        self.designs
            .iter()
            .find(|qs| qs.config.n == n && qs.config.bug == bug)
            .expect("setup builds every job's design")
    }
}

impl Workload for QuickSortJobs {
    fn setup(&mut self, tracer: &mut Tracer, _layers: &mut Layers) -> Result<(), String> {
        let mut designs: Vec<QuickSort> = Vec::new();
        for job in self.jobs {
            let config = quicksort_config(job.n, job.bug);
            if designs
                .iter()
                .all(|qs| (qs.config.n, qs.config.bug) != (job.n, job.bug))
            {
                designs.push(tracer.span("design.build", |_| QuickSort::new(config)));
            }
        }
        self.designs = designs;
        Ok(())
    }

    fn pass(&mut self, rng: &mut Rng, tracer: &mut Tracer, layers: &mut Layers) -> Vec<JobResult> {
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        rng.shuffle(&mut order);
        let options = VerifyOptions::default().proofs(true);
        order
            .into_iter()
            .map(|i| {
                let job = &self.jobs[i];
                let qs = self.design(job.n, job.bug);
                let property = if job.p2 { qs.p2 } else { qs.p1 }.0 as usize;
                let ((engine, checked), seconds) = timed(|| {
                    tracer.job(i, |t| {
                        let mut engine = t.span("engine.new", |_| {
                            BmcEngine::new(&qs.design, options.clone())
                        });
                        let checked =
                            t.span("engine.check", |_| engine.check(property, qs.cycle_bound()));
                        (engine, checked)
                    })
                });
                let (error, fingerprint) = match &checked {
                    Ok(run) => {
                        add_engine(layers, &engine, run);
                        let phases = &run.phase_seconds;
                        add_reduce(
                            layers,
                            (phases.rewrite, phases.fraig),
                            engine.model().num_gates(),
                        );
                        (
                            check_verdict(&run.verdict, property, &qs.design, Some(job.expect)),
                            engine_fingerprint(&engine, run),
                        )
                    }
                    Err(e) => (Some(engine_error(e)), String::new()),
                };
                JobResult {
                    key: job.key.to_string(),
                    seconds,
                    seeded: false,
                    error,
                    fingerprint,
                }
            })
            .collect()
    }

    /// Dumps the P1 instance at the proof depth, renders it as DIMACS,
    /// and solves it in a fresh solver: the CDCL kernel on its own.
    fn probe(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Vec<JobResult> {
        if !self.dump_probe {
            return Vec::new();
        }
        let qs = self.design(self.jobs[0].n, Bug::None);
        let property = qs.p1.0 as usize;
        let (result, seconds) = timed(|| {
            tracer.job(self.jobs.len(), |t| {
                let (dump, dump_s) = t.span("encode.dump", |_| {
                    timed(|| {
                        dump_bmc_cnf(
                            &qs.design,
                            property,
                            PROBE_DUMP_DEPTH,
                            VerifyOptions::default(),
                        )
                    })
                });
                let dump = dump.map_err(|e| format!("dump failed: {e}"))?;
                let (text, text_s) = t.span("dimacs.text", |_| timed(|| dump.to_dimacs()));
                let (answer, solve_s) = t.span("solver.cnf_solve", |_| {
                    timed(|| dump.cnf.to_solver().solve())
                });
                add_dump(layers, dump.num_vars(), dump.num_clauses(), dump_s);
                add_dimacs(layers, text.len(), text_s);
                layers.add("solver.cnf_solve_s", solve_s);
                let fingerprint = format!(
                    "vars={} clauses={} bytes={}",
                    dump.num_vars(),
                    dump.num_clauses(),
                    text.len()
                );
                let error =
                    check_dimacs(&text, dump.num_vars(), dump.num_clauses()).or_else(|| {
                        let unsat = answer == SolveResult::Unsat;
                        (!unsat).then(|| {
                            format!("P1 to depth {PROBE_DUMP_DEPTH} is {answer:?}, not UNSAT")
                        })
                    });
                Ok::<_, String>((error, fingerprint))
            })
        });
        let (error, fingerprint) = result.unwrap_or_else(|e| (Some(e), String::new()));
        vec![JobResult {
            key: format!("probe:quicksort:p1:dump@{PROBE_DUMP_DEPTH}"),
            seconds,
            seeded: false,
            error,
            fingerprint,
        }]
    }
}

fn engine_error(e: &BmcError) -> String {
    format!("engine error: {e}")
}

fn add_dump(layers: &mut Layers, vars: usize, clauses: usize, dump_s: f64) {
    layers.add("encode.dump_s", dump_s);
    layers.add("encode.vars", vars as f64);
    layers.add("encode.clauses", clauses as f64);
}

fn add_dimacs(layers: &mut Layers, bytes: usize, text_s: f64) {
    layers.add("dimacs.text_s", text_s);
    layers.add("dimacs.bytes", bytes as f64);
}

/// Checks DIMACS text against the instance it renders: a `p cnf` header
/// with the instance's counts, and one line per clause.
pub fn check_dimacs(text: &str, vars: usize, clauses: usize) -> Option<String> {
    let header = format!("p cnf {vars} {clauses}");
    let Some(found) = text.lines().find(|l| l.starts_with("p ")) else {
        return Some("DIMACS text has no header".to_string());
    };
    if found != header {
        return Some(format!("DIMACS header {found:?}, expected {header:?}"));
    }
    let lines = text.lines().filter(|l| !l.starts_with(['c', 'p'])).count();
    (lines != clauses).then(|| format!("DIMACS text has {lines} clause lines, expected {clauses}"))
}

// ---------------------------------------------------------------------
// corpus-batch: many small mixed jobs through the verification server.

/// Worker threads of the `corpus-batch` server.
const CORPUS_WORKERS: usize = 2;
/// Depth budget of every `corpus-batch` job.
const CORPUS_DEPTH: usize = 10;
/// Designs generated from the seed, on top of the corpus files. Only
/// designs with exactly `GENERATED_PROPERTIES` properties are kept, so
/// every seed submits the same number of jobs.
const GENERATED_DESIGNS: usize = 4;
const GENERATED_PROPERTIES: usize = 2;
/// Generator draws allowed per kept design.
const GENERATOR_DRAWS: usize = 100;

/// Pinned verdicts of the corpus files: `file:pN bounded induction`.
const EXPECTED_CORPUS: &str = include_str!("../expected_corpus.txt");

/// The pinned table, keyed by `file:pN`.
pub fn expected_corpus() -> Result<BTreeMap<String, [String; 2]>, String> {
    let mut table = BTreeMap::new();
    for (i, line) in EXPECTED_CORPUS.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let [key, bounded, induction] = fields[..] else {
            return Err(format!("expected_corpus.txt line {}: {line:?}", i + 1));
        };
        table.insert(
            key.to_string(),
            [bounded.to_string(), induction.to_string()],
        );
    }
    Ok(table)
}

struct CorpusDesign {
    name: String,
    design: Arc<Design>,
    /// Whether the design is a corpus file (pinned) or generated.
    pinned: bool,
}

struct CorpusBatch {
    dir: PathBuf,
    seed: u64,
    expected: BTreeMap<String, [String; 2]>,
    designs: Vec<CorpusDesign>,
    /// The last pass's verdicts by job key, for the probe to compare.
    last: BTreeMap<String, String>,
}

impl CorpusBatch {
    fn new(dir: PathBuf, seed: u64) -> Result<CorpusBatch, String> {
        Ok(CorpusBatch {
            dir,
            seed,
            expected: expected_corpus()?,
            designs: Vec::new(),
            last: BTreeMap::new(),
        })
    }

    fn options(engine: ProofEngine) -> VerifyOptions {
        VerifyOptions::default().proof_engine(engine)
    }

    fn job_key(&self, design: usize, property: usize, engine: ProofEngine) -> String {
        let mode = match engine {
            ProofEngine::Bounded => "bounded",
            ProofEngine::KInduction => "induction",
        };
        format!("{}:p{property}:{mode}", self.designs[design].name)
    }
}

/// The corpus files under `dir`, sorted by name.
fn corpus_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files: Vec<PathBuf> = entries
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("aag" | "aig" | "btor" | "btor2")
            )
        })
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("no model files under {}", dir.display()));
    }
    Ok(files)
}

impl Workload for CorpusBatch {
    fn workers(&self) -> usize {
        CORPUS_WORKERS
    }

    fn setup(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Result<(), String> {
        let mut designs = Vec::new();
        let mut load = |source: ModelSource, bytes: usize, name: String, pinned: bool| {
            let (design, load_s) = tracer.span("frontend.load", |_| timed(|| source.load()));
            let design = design.map_err(|e| format!("{name}: {e}"))?;
            layers.add("frontend.load_s", load_s);
            layers.add("frontend.bytes", bytes as f64);
            designs.push(CorpusDesign {
                name,
                design,
                pinned,
            });
            Ok::<(), String>(())
        };
        for path in corpus_files(&self.dir)? {
            let bytes = std::fs::metadata(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?
                .len() as usize;
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("unnamed")
                .to_string();
            load(ModelSource::from_path(&path), bytes, name, true)?;
        }
        // Generated designs go through the BTOR2 writer and back through
        // the frontend, like a model arriving from outside.
        let mut rng = Rng::new(self.seed);
        let mut kept = 0;
        for draw in 0.. {
            if kept == GENERATED_DESIGNS {
                break;
            }
            if draw == GENERATOR_DRAWS * GENERATED_DESIGNS {
                return Err(format!(
                    "fewer than {GENERATED_DESIGNS} generated designs have \
                     {GENERATED_PROPERTIES} properties in {draw} draws"
                ));
            }
            let gen_seed = rng.next_u64();
            let design = random_design(&GenConfig::btor2_guarded(), gen_seed);
            if design.properties().len() != GENERATED_PROPERTIES {
                continue;
            }
            let text =
                write_btor2(&design).map_err(|e| format!("generated design {gen_seed}: {e}"))?;
            let bytes = text.len();
            load(
                ModelSource::Btor2Text(text),
                bytes,
                format!("gen_{gen_seed:016x}"),
                false,
            )?;
            kept += 1;
        }
        self.designs = designs;
        Ok(())
    }

    fn pass(&mut self, rng: &mut Rng, tracer: &mut Tracer, layers: &mut Layers) -> Vec<JobResult> {
        let budget = VerifyBudget {
            max_depth: CORPUS_DEPTH,
            ..VerifyBudget::default()
        };
        let mut order: Vec<(usize, ProofEngine)> = (0..self.designs.len())
            .flat_map(|d| [(d, ProofEngine::Bounded), (d, ProofEngine::KInduction)])
            .collect();
        rng.shuffle(&mut order);
        let mut server = VerificationServer::new(CORPUS_WORKERS);
        let mut submitted: Vec<(usize, usize, ProofEngine)> = Vec::new();
        for (d, engine) in order {
            let source = ModelSource::Design(Arc::clone(&self.designs[d].design));
            let ids = server
                .submit_model(&source, &budget, &Self::options(engine))
                .expect("an in-memory design always loads");
            submitted.extend((0..ids.len()).map(|p| (d, p, engine)));
        }
        let responses = tracer.span("server.run", |_| server.run());
        let stats = server.stats();
        layers.add("server.batch_s", stats.elapsed_seconds);

        let mut verdicts: BTreeMap<(usize, usize), [String; 2]> = BTreeMap::new();
        let mut jobs: Vec<JobResult> = Vec::with_capacity(responses.len());
        for (response, &(d, property, engine)) in responses.iter().zip(&submitted) {
            layers.add("server.job_s_sum", response.elapsed_seconds);
            let key = self.job_key(d, property, engine);
            let name = verdict_name(&response.verdict);
            let entry = &self.designs[d];
            let pinned_key = format!("{}:p{property}", entry.name);
            let expect = entry.pinned.then(|| self.expected.get(&pinned_key));
            let slot = usize::from(engine == ProofEngine::KInduction);
            let error = if let Some(e) = &response.error {
                layers.add("server.errors", 1.0);
                Some(format!("server error: {e}"))
            } else if expect == Some(None) {
                Some(format!("no pinned verdict for {pinned_key}"))
            } else {
                let expect = expect.flatten().map(|e| e[slot].as_str());
                check_verdict(&response.verdict, property, &entry.design, expect)
            };
            verdicts.entry((d, property)).or_default()[slot] = name.clone();
            self.last.insert(key.clone(), name.clone());
            jobs.push(JobResult {
                key,
                seconds: response.elapsed_seconds,
                seeded: !entry.pinned,
                error,
                fingerprint: format!("{name} depth={}", response.depth_reached),
            });
        }
        // Bounded and k-induction answers for one property must agree.
        for (job, &(d, property, _)) in jobs.iter_mut().zip(&submitted) {
            let [bounded, induction] = &verdicts[&(d, property)];
            if job.error.is_none() && contradicts(bounded, induction) {
                job.error = Some(format!(
                    "bounded {bounded} contradicts induction {induction}"
                ));
            }
        }
        jobs
    }

    /// Replays every job outside the server, one public call per layer:
    /// the shared reduction per design, then the bounded engine and the
    /// k-induction engine per property. Their verdicts must equal the
    /// server's.
    fn probe(&mut self, tracer: &mut Tracer, layers: &mut Layers) -> Vec<JobResult> {
        let mut jobs = Vec::new();
        for (d, entry) in self.designs.iter().enumerate() {
            let options = Self::options(ProofEngine::Bounded);
            let pipeline = &options.pipeline;
            let reduced = tracer.span("reduce", |_| {
                ReducedModel::reduce(
                    &entry.design,
                    &pipeline.rewrite,
                    &pipeline.fraig,
                    &pipeline.governor,
                    options.workers,
                )
            });
            add_reduce(layers, reduced.seconds(), reduced.model().num_gates());
            for property in 0..entry.design.properties().len() {
                for engine in [ProofEngine::Bounded, ProofEngine::KInduction] {
                    let key = self.job_key(d, property, engine);
                    let (outcome, seconds) = timed(|| {
                        tracer.job(jobs.len(), |t| match engine {
                            ProofEngine::Bounded => t.span("engine.check", |_| {
                                let mut e = BmcEngine::with_model(&reduced, Self::options(engine));
                                let run = e.check(property, CORPUS_DEPTH)?;
                                add_engine(layers, &e, &run);
                                Ok(run.verdict)
                            }),
                            ProofEngine::KInduction => t.span("kinduction.check", |_| {
                                let mut k = KInduction::with_model(&reduced, Self::options(engine));
                                let (run, check_s) = timed(|| k.check(property, CORPUS_DEPTH));
                                layers.add("kinduction.check_s", check_s);
                                layers.add("kinduction.step_queries", k.step_queries() as f64);
                                run.map(|r| r.verdict)
                            }),
                        })
                    });
                    let (error, name) = match outcome {
                        Ok(verdict) => {
                            let name = verdict_name(&verdict);
                            let server = self.last.get(&key).map(String::as_str);
                            let error = check_verdict(&verdict, property, &entry.design, server);
                            (error.map(|e| format!("outside the server: {e}")), name)
                        }
                        Err(e) => (Some(engine_error(&e)), String::new()),
                    };
                    jobs.push(JobResult {
                        key: format!("probe:{key}"),
                        seconds,
                        seeded: !entry.pinned,
                        error,
                        fingerprint: name,
                    });
                }
            }
        }
        jobs
    }
}

// ---------------------------------------------------------------------
// cnf-export: reduction and the encoders at the paper's widths, no solver.

struct CnfExport {
    design: Option<QuickSort>,
}

impl Workload for CnfExport {
    fn setup(&mut self, tracer: &mut Tracer, _layers: &mut Layers) -> Result<(), String> {
        self.design = Some(tracer.span("design.build", |_| {
            QuickSort::new(QuickSortConfig::paper(3))
        }));
        Ok(())
    }

    /// Per property: reduce the design, dump the BMC instance to the
    /// cycle bound, and render it as DIMACS text.
    fn pass(&mut self, rng: &mut Rng, tracer: &mut Tracer, layers: &mut Layers) -> Vec<JobResult> {
        let qs = self.design.as_ref().expect("setup builds the design");
        let bound = qs.cycle_bound();
        let mut properties = [(qs.p1.0 as usize, "p1"), (qs.p2.0 as usize, "p2")];
        rng.shuffle(&mut properties);
        let options = VerifyOptions::default();
        let pipeline = &options.pipeline;
        properties
            .into_iter()
            .enumerate()
            .map(|(i, (property, label))| {
                let (exported, seconds) = timed(|| {
                    tracer.job(i, |t| {
                        let reduced = t.span("reduce", |_| {
                            ReducedModel::reduce(
                                &qs.design,
                                &pipeline.rewrite,
                                &pipeline.fraig,
                                &pipeline.governor,
                                options.workers,
                            )
                        });
                        add_reduce(layers, reduced.seconds(), reduced.model().num_gates());
                        let ands = reduced.model().num_gates();
                        let (dump, dump_s) = t.span("encode.dump", |_| {
                            timed(|| {
                                dump_bmc_cnf(reduced.model(), property, bound, options.clone())
                            })
                        });
                        let dump = dump.map_err(|e| format!("dump failed: {e}"))?;
                        let (text, text_s) = t.span("dimacs.text", |_| timed(|| dump.to_dimacs()));
                        add_dump(layers, dump.num_vars(), dump.num_clauses(), dump_s);
                        add_dimacs(layers, text.len(), text_s);
                        Ok::<_, String>((ands, dump, text))
                    })
                });
                let key = format!("quicksort-paper:{label}");
                let (error, fingerprint) = match exported {
                    Ok((ands, dump, text)) => {
                        let error = if dump.bad_lits.len() != bound + 1 {
                            Some(format!(
                                "{} bad literals for {} frames",
                                dump.bad_lits.len(),
                                bound + 1
                            ))
                        } else {
                            check_dimacs(&text, dump.num_vars(), dump.num_clauses())
                        };
                        let fingerprint = format!(
                            "ands={ands} vars={} clauses={} bytes={}",
                            dump.num_vars(),
                            dump.num_clauses(),
                            text.len()
                        );
                        (error, fingerprint)
                    }
                    Err(e) => (Some(e), String::new()),
                };
                JobResult {
                    key,
                    seconds,
                    seeded: false,
                    error,
                    fingerprint,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffles_repeat_per_seed() {
        let order = |seed| {
            let mut v: Vec<u32> = (0..20).collect();
            Rng::new(seed).shuffle(&mut v);
            v
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
        let mut sorted = order(7);
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn contradiction_rules() {
        assert!(!contradicts("bound", "proved@1"));
        assert!(!contradicts("bound", "bound"));
        assert!(!contradicts("cex@4", "cex@4"));
        assert!(contradicts("cex@4", "cex@5"));
        assert!(contradicts("bound", "cex@3"));
        assert!(contradicts("cex@3", "proved@2"));
    }

    #[test]
    fn dimacs_check_reads_header_and_clause_lines() {
        let text = "c dump\np cnf 3 2\n1 -2 0\n3 0\n";
        assert_eq!(check_dimacs(text, 3, 2), None);
        assert!(check_dimacs(text, 3, 3).is_some());
        assert!(check_dimacs("1 0\n", 1, 1).is_some());
        assert!(check_dimacs("p cnf 3 2\n1 0\n", 3, 2).is_some());
    }

    #[test]
    fn pinned_table_parses_and_agrees_with_itself() {
        let table = expected_corpus().expect("table parses");
        assert!(!table.is_empty());
        for (key, [bounded, induction]) in &table {
            assert!(key.contains(":p"), "{key}");
            assert!(!contradicts(bounded, induction), "{key}");
        }
    }

    #[test]
    fn unknown_workloads_are_rejected() {
        assert!(by_name("nope", 1, Path::new(".")).is_err());
        for name in NAMES {
            assert!(by_name(name, 1, Path::new(".")).is_ok());
        }
    }
}
