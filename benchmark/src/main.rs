//! The repository benchmark. One process, one closed-loop client, at
//! most two worker threads; see `README.md` in this directory for the
//! workloads and every metric.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <table-proofs|bug-hunt|corpus-batch|cnf-export> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! the result: `{"correct", "attempted", "failed", "metrics"}`, with the
//! end-to-end metrics under `--trace 0` and the per-layer metrics under
//! `--trace 1`. The lines before it give every metric with its quartiles
//! and sample count, the run context, and (traced) the span totals; the
//! traced run also writes every span to `.bench_out/`.

mod calibrate;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use report::{Context, Metric, Outcome};
use stats::Summary;
use trace::Tracer;
use workloads::{JobResult, Layers, Rng, Workload};

/// End-to-end metrics, reported by untraced runs.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_s_p50", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, reported by traced runs. A layer a workload does
/// not call reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("frontend.load_s", "s"),
    ("frontend.bytes_per_s", "B/s"),
    ("reduce.rewrite_s", "s"),
    ("reduce.fraig_s", "s"),
    ("reduce.ands_out", "count"),
    ("encode.dump_s", "s"),
    ("encode.clauses", "count"),
    ("encode.vars", "count"),
    ("encode.clauses_per_s", "1/s"),
    ("engine.encode_s", "s"),
    ("dimacs.text_s", "s"),
    ("dimacs.bytes", "B"),
    ("engine.check_s", "s"),
    ("engine.solve_s", "s"),
    ("engine.inprocess_s", "s"),
    ("engine.bound_s_max", "s"),
    ("solver.conflicts", "count"),
    ("solver.decisions", "count"),
    ("solver.propagations", "count"),
    ("solver.decisions_per_conflict", "ratio"),
    ("solver.cnf_solve_s", "s"),
    ("inprocess.rounds", "count"),
    ("inprocess.lits_removed", "count"),
    ("inprocess.lits_per_s", "1/s"),
    ("kinduction.check_s", "s"),
    ("kinduction.step_queries", "count"),
    ("server.batch_s", "s"),
    ("server.job_s_sum", "s"),
    ("server.utilization", "ratio"),
    ("server.errors", "count"),
    ("trace.overhead_s", "s"),
];

/// Set-up repeats at least this often and until this much time has
/// passed (or the cap is reached); `setup_s` is the median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 20_000;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);
/// Set-up repetitions run in blocks of this length, with the host speed
/// sampled between blocks.
const SETUP_BLOCK: Duration = Duration::from_millis(100);

/// Failed jobs printed by key before the rest are only counted.
const FAILURES_SHOWN: usize = 20;

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let value = |flag: &str| {
            let i = args
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            args.get(i + 1)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |flag: &str| {
            value(flag)?
                .parse::<u64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        let trace = match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        };
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload: value("--workload")?,
            seed: number("--seed")?,
            seconds,
            trace,
        })
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv).unwrap_or_else(|e| {
        eprintln!("emm-benchmark: {e}");
        eprintln!(
            "usage: emm-benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
            workloads::NAMES.join("|")
        );
        std::process::exit(2);
    });
    match run(&args) {
        Ok(outcome) => println!("{}", outcome.to_json()),
        Err(e) => {
            eprintln!("emm-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

/// Everything the passes of one run produced.
#[derive(Debug, Default)]
struct Ledger {
    attempted: usize,
    failed: usize,
    /// First fingerprint seen per job key.
    fingerprints: BTreeMap<String, String>,
    /// Jobs whose deterministic counts changed between passes.
    drifted: usize,
}

impl Ledger {
    fn record(&mut self, jobs: &[JobResult]) {
        for job in jobs {
            self.attempted += 1;
            if let Some(error) = &job.error {
                self.failed += 1;
                if self.failed <= FAILURES_SHOWN {
                    println!("FAILED {}: {error}", job.key);
                }
            }
            let first = self
                .fingerprints
                .entry(job.key.clone())
                .or_insert_with(|| job.fingerprint.clone());
            if *first != job.fingerprint {
                self.drifted += 1;
                println!(
                    "DRIFT {}: counts {:?} then {:?}",
                    job.key, first, job.fingerprint
                );
            }
        }
    }
}

/// Timing samples of a series of passes, in seconds at nominal host
/// speed (see `calibrate`), plus the pass walls as measured.
#[derive(Debug, Default)]
struct Passes {
    walls: Vec<f64>,
    rates: Vec<f64>,
    /// Per job key, its time on every pass.
    job_seconds: BTreeMap<String, Vec<f64>>,
    measured_walls: Vec<f64>,
}

impl Passes {
    /// Each job's median time over the passes.
    fn job_medians(&self) -> Vec<f64> {
        self.job_seconds
            .values()
            .map(|t| summary(t).median)
            .collect()
    }
}

/// Runs passes until the next one would end after `budget` (at least
/// one pass), recording each pass's jobs in `ledger`. The host speed is
/// sampled before and after every pass.
fn run_passes(
    workload: &mut dyn Workload,
    rng: &mut Rng,
    budget: f64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    ledger: &mut Ledger,
) -> Passes {
    let started = Instant::now();
    let mut passes = Passes::default();
    let workers = workload.workers();
    let mut before = calibrate::sample(workers);
    loop {
        let pass_started = Instant::now();
        let jobs = tracer.span("pass", |t| workload.pass(rng, t, layers));
        let measured = pass_started.elapsed().as_secs_f64();
        let after = calibrate::sample(workers);
        let scale = calibrate::scale(before, after);
        before = after;
        let wall = measured * scale;
        passes.measured_walls.push(measured);
        passes.walls.push(wall);
        passes.rates.push(jobs.len() as f64 / wall);
        for job in jobs.iter().filter(|j| !j.seeded) {
            passes
                .job_seconds
                .entry(job.key.clone())
                .or_default()
                .push(job.seconds * scale);
        }
        ledger.record(&jobs);
        let typical = Summary::of(&passes.measured_walls).map_or(measured, |s| s.median);
        if started.elapsed().as_secs_f64() + typical > budget {
            return passes;
        }
    }
}

fn summary(samples: &[f64]) -> Summary {
    Summary::of(samples).expect("every run has at least one sample")
}

fn print_metric(name: &str, unit: &str, s: &Summary) {
    println!(
        "metric {name} = {} {unit}  (q1 {}, q3 {}, n {})",
        s.median, s.q1, s.q3, s.n
    );
}

fn run(args: &Args) -> Result<Outcome, String> {
    let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
    let mut workload = workloads::by_name(&args.workload, args.seed, &root)?;
    let context = Context {
        workload: args.workload.clone(),
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers: workload.workers(),
        profile: if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        commit: report::git_commit(&root),
    };
    println!("context {}", context.to_json());

    let mut tracer = Tracer::new(args.trace);
    let mut setup_layers = Layers::default();
    let mut setup_measured = Vec::new();
    let mut setup_seconds = Vec::new();
    let mut before = calibrate::sample(1);
    let setup_started = Instant::now();
    while setup_seconds.len() < SETUP_MIN_REPS
        || (setup_started.elapsed() < SETUP_MIN_TIME && setup_seconds.len() < SETUP_MAX_REPS)
    {
        let block_started = Instant::now();
        let mut block = Vec::new();
        while block.is_empty() || block_started.elapsed() < SETUP_BLOCK {
            let started = Instant::now();
            tracer.span("setup", |t| workload.setup(t, &mut setup_layers))?;
            block.push(started.elapsed().as_secs_f64());
        }
        let after = calibrate::sample(1);
        let scale = calibrate::scale(before, after);
        before = after;
        setup_measured.extend(&block);
        setup_seconds.extend(block.iter().map(|s| s * scale));
    }
    let setup_measured = summary(&setup_measured);
    let setup = summary(&setup_seconds);

    // End-to-end figures come from untraced passes only; the traced run
    // splits its time between untraced and traced passes.
    let budget = args.seconds as f64 / if args.trace { 2.0 } else { 1.0 };
    let mut rng = Rng::new(args.seed);
    let mut ledger = Ledger::default();
    let untraced = run_passes(
        &mut *workload,
        &mut rng,
        budget,
        &mut Tracer::new(false),
        &mut Layers::default(),
        &mut ledger,
    );
    let wall = summary(&untraced.walls);
    println!("measured pass walls {:?}", untraced.measured_walls);
    print_metric("measured setup_s", "s", &setup_measured);
    print_metric("measured wall_s", "s", &summary(&untraced.measured_walls));
    print_metric("setup_s", "s", &setup);
    print_metric("wall_s", "s", &wall);
    let verdict = summary(&untraced.job_medians());
    print_metric("verdict_s_p50", "s", &verdict);
    print_metric("jobs_per_s", "1/s", &summary(&untraced.rates));

    let metrics = if args.trace {
        let mut pass_layers = Layers::default();
        let traced = run_passes(
            &mut *workload,
            &mut rng,
            budget,
            &mut tracer,
            &mut pass_layers,
            &mut ledger,
        );
        let mut probe_layers = Layers::default();
        let probe_jobs = tracer.span("probe", |t| workload.probe(t, &mut probe_layers));
        ledger.record(&probe_jobs);
        let traced_wall = summary(&traced.walls);
        print_metric("traced wall_s", "s", &traced_wall);
        let mut layers = merge(&[
            (setup_layers, setup_seconds.len()),
            (pass_layers, traced.walls.len()),
            (probe_layers, 1),
        ]);
        layers.insert("trace.overhead_s", traced_wall.median - wall.median);
        derive_ratios(&mut layers, workload.workers());
        print_spans(&tracer, &args.workload, args.seed);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: layers.get(name).copied().unwrap_or(0.0),
            })
            .collect()
    } else {
        let values = [
            setup.median,
            wall.median,
            verdict.median,
            summary(&untraced.rates).median,
            report::peak_rss_mib()?,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect()
    };
    println!(
        "metric peak_rss_mib = {} MiB  (n 1)",
        report::peak_rss_mib()?
    );
    println!(
        "metric failed_frac = {} ratio  ({} of {} jobs)",
        ledger.failed as f64 / ledger.attempted as f64,
        ledger.failed,
        ledger.attempted
    );
    if ledger.drifted > 0 {
        println!(
            "{} job(s) changed their deterministic counts between passes",
            ledger.drifted
        );
    }
    Ok(Outcome {
        correct: ledger.failed == 0 && ledger.drifted == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    })
}

/// Each scope's sums divided by its repetitions, plus its peaks.
fn merge(scopes: &[(Layers, usize)]) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (layers, reps) in scopes {
        for (&name, &sum) in &layers.sums {
            *out.entry(name).or_default() += sum / *reps as f64;
        }
        for (&name, &peak) in &layers.peaks {
            let entry = out.entry(name).or_insert(peak);
            *entry = entry.max(peak);
        }
    }
    out
}

/// Useful work per second spent, and the other ratios, from the merged
/// figures; a ratio with nothing under it reads 0.
fn derive_ratios(layers: &mut BTreeMap<&'static str, f64>, workers: usize) {
    let get = |layers: &BTreeMap<&str, f64>, name: &str| layers.get(name).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let derived = [
        (
            "frontend.bytes_per_s",
            ratio(
                get(layers, "frontend.bytes"),
                get(layers, "frontend.load_s"),
            ),
        ),
        (
            "encode.clauses_per_s",
            ratio(get(layers, "encode.clauses"), get(layers, "encode.dump_s")),
        ),
        (
            "solver.decisions_per_conflict",
            ratio(
                get(layers, "solver.decisions"),
                get(layers, "solver.conflicts"),
            ),
        ),
        (
            "inprocess.lits_per_s",
            ratio(
                get(layers, "inprocess.lits_removed"),
                get(layers, "engine.inprocess_s"),
            ),
        ),
        (
            "server.utilization",
            ratio(
                get(layers, "server.job_s_sum"),
                workers as f64 * get(layers, "server.batch_s"),
            ),
        ),
    ];
    layers.extend(derived);
}

/// Prints per-name span totals and writes every span to `.bench_out/`.
fn print_spans(tracer: &Tracer, workload: &str, seed: u64) {
    for (name, (count, total, own)) in trace::totals(tracer.spans()) {
        println!("span {name}: count {count}, total {total} s, self {own} s");
    }
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::to_jsonl(tracer.spans())));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("emm-benchmark: cannot write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_driver_arguments() {
        let args = Args::parse(&strings(&[
            "--workload",
            "bug-hunt",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, "bug-hunt");
        assert_eq!((args.seed, args.seconds, args.trace), (3, 10, true));
        assert!(Args::parse(&strings(&["--workload", "x"])).is_err());
        assert!(Args::parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(Args::parse(&strings(&[
            "--workload",
            "x",
            "--seed",
            "1",
            "--seconds",
            "5",
            "--trace",
            "2"
        ]))
        .is_err());
    }

    #[test]
    fn scopes_average_sums_and_keep_peaks() {
        let mut setup = Layers::default();
        setup.add("frontend.load_s", 3.0);
        setup.add("frontend.bytes", 300.0);
        let mut passes = Layers::default();
        passes.add("engine.solve_s", 4.0);
        passes.peak("engine.bound_s_max", 0.5);
        passes.peak("engine.bound_s_max", 0.25);
        let mut merged = merge(&[(setup, 3), (passes, 2)]);
        assert_eq!(merged["frontend.load_s"], 1.0);
        assert_eq!(merged["engine.solve_s"], 2.0);
        assert_eq!(merged["engine.bound_s_max"], 0.5);
        derive_ratios(&mut merged, 2);
        assert_eq!(merged["frontend.bytes_per_s"], 100.0);
        assert_eq!(merged["solver.decisions_per_conflict"], 0.0);
    }

    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let definition = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(definition.contains(&entry), "{entry} missing");
        }
        assert_eq!(
            definition.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads::NAMES.len()
        );
        for name in workloads::NAMES {
            assert!(definition.contains(&format!("\"name\": \"{name}\", \"why\"")));
        }
    }

    #[test]
    fn metric_lists_have_unique_names() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let all = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all);
    }
}
