//! Frontend corpus runner: sweeps a directory of `.aag`/`.aig`/`.btor2`
//! files end-to-end through the [`ModelSource`] frontend and both proof
//! engines, and writes a machine-readable `BENCH_corpus.json` in the
//! same flat-record format as `BENCH_simplify.json` (CI's
//! `frontend-corpus` step diffs fresh numbers against the committed file
//! via the `bench_check` binary with `--require-modes bounded,induction`).
//!
//! Every property of every parsed design becomes two rows keyed
//! `"<file stem>:p<index>"`:
//!
//! * `bounded` — the [`BmcEngine`] loop up to `--max-depth`, recording
//!   the verdict, depth, wall time, and the anchored solver's
//!   variable/clause counts (what the encoders actually emitted under
//!   the default simplifying pipeline);
//! * `induction` — the [`BmcEngine`] under the k-induction schedule over
//!   the same depth budget (base-case solver counts, comparable to the
//!   bounded row).
//!
//! Both rows also record `conflicts`, the search effort of the job: the
//! anchored solver's conflicts plus the floating (step) solver's, when
//! the job has one.
//!
//! The whole corpus is then replayed through [`VerificationServer`]
//! batches at pool sizes 1 and 4 via
//! [`submit_model`](VerificationServer::submit_model): the verdicts must
//! be identical to the direct bounded rows *and* across worker counts
//! (a cheap standing differential), and the batch throughput lands in
//! the `server` section `bench_check` requires on every fresh file.
//!
//! `--emit` (re)generates the golden corpus before sweeping: the paper's
//! Table 1 / Table 2 quicksort workloads and the `emm-designs` case
//! studies written as `.btor2`, the explicit-model (memory-free)
//! variants and two seeded generated designs written as ASCII and binary
//! AIGER.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p emm-bench --bin corpus -- \
//!     [--dir corpus] [--out BENCH_corpus.json] [--max-depth 10] \
//!     [--timeout SECS] [--emit]
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use emm_aig::aiger::{write_aiger_ascii, write_aiger_binary};
use emm_aig::btor2::write_btor2;
use emm_aig::Design;
use emm_bench::ServerRow;
use emm_bmc::{
    BmcEngine, BmcVerdict, ModelSource, ProofEngine, VerificationServer, VerifyBudget,
    VerifyOptions,
};
use emm_core::explicit_model;
use emm_designs::fifo::{Fifo, FifoConfig};
use emm_designs::gen::{random_design, GenConfig};
use emm_designs::image_filter::{ImageFilter, ImageFilterConfig};
use emm_designs::lifo::{Lifo, LifoConfig};
use emm_designs::memcpy::{Memcpy, MemcpyConfig};
use emm_designs::quicksort::{QuickSort, QuickSortConfig};
use emm_designs::regfile::{RegFile, RegFileConfig};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

fn verdict_name(v: &BmcVerdict) -> String {
    match v {
        BmcVerdict::Proof { depth, .. } => format!("proof@{depth}"),
        BmcVerdict::Counterexample(t) => format!("cex@{}", t.depth()),
        BmcVerdict::BoundReached => "bound".into(),
        BmcVerdict::Proved { k } => format!("proved@{k}"),
        BmcVerdict::Unknown { reason, .. } => format!("unknown:{}", reason.as_str()),
    }
}

struct Row {
    benchmark: String,
    mode: &'static str,
    verdict: String,
    depth: usize,
    seconds: f64,
    vars: usize,
    clauses: u64,
    emm_clauses: usize,
    conflicts: u64,
}

/// Conflicts of both of `engine`'s contexts (see [`Row`]'s `conflicts`).
fn conflicts(engine: &BmcEngine) -> u64 {
    let floating = engine
        .floating_solver_stats()
        .map_or(0, |(_, stats)| stats.conflicts);
    engine.solver_stats().1.conflicts + floating
}

/// Writes the golden corpus files into `dir`.
fn emit_corpus(dir: &Path) {
    std::fs::create_dir_all(dir).expect("create corpus dir");
    let write = |name: &str, bytes: Vec<u8>| {
        let path = dir.join(name);
        std::fs::write(&path, bytes).expect("write corpus file");
        println!("emitted {}", path.display());
    };

    // Table 1 / Table 2 workloads: quicksort P1 + P2, scaled to corpus
    // size (the full-size sweeps live in the simplify/table harnesses).
    for n in [3usize, 4] {
        let qs = QuickSort::new(QuickSortConfig {
            n,
            addr_width: 4,
            data_width: 3,
            bug: Default::default(),
        });
        write(
            &format!("quicksort_n{n}.btor2"),
            write_btor2(&qs.design).expect("btor2").into_bytes(),
        );
    }

    // Industry-style case studies.
    let fifo = Fifo::new(FifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    write(
        "fifo_a2d2.btor2",
        write_btor2(&fifo.design).expect("btor2").into_bytes(),
    );
    let lifo = Lifo::new(LifoConfig {
        addr_width: 2,
        data_width: 2,
    });
    write(
        "lifo_a2d2.btor2",
        write_btor2(&lifo.design).expect("btor2").into_bytes(),
    );
    let regfile = RegFile::new(RegFileConfig {
        addr_width: 2,
        data_width: 2,
        read_ports: 2,
        write_ports: 1,
        watched: 1,
    });
    write(
        "regfile_r2w1.btor2",
        write_btor2(&regfile.design).expect("btor2").into_bytes(),
    );
    let memcpy = Memcpy::new(MemcpyConfig {
        len: 3,
        addr_width: 2,
        data_width: 2,
    });
    write(
        "memcpy_l3.btor2",
        write_btor2(&memcpy.design).expect("btor2").into_bytes(),
    );
    let filter = ImageFilter::new(ImageFilterConfig {
        line_length: 4,
        addr_width: 2,
        data_width: 2,
        reachable_properties: 4,
        unreachable_properties: 2,
        max_witness_depth: 8,
    });
    write(
        "image_filter_l4.btor2",
        write_btor2(&filter.design).expect("btor2").into_bytes(),
    );

    // AIGER needs memory-free designs: the explicit-model variants of
    // two case studies (one ASCII, one binary)...
    let (fifo_explicit, _) = explicit_model(&fifo.design);
    write(
        "fifo_a2d2_explicit.aag",
        write_aiger_ascii(&fifo_explicit)
            .expect("aiger")
            .into_bytes(),
    );
    let (lifo_explicit, _) = explicit_model(&lifo.design);
    write(
        "lifo_a2d2_explicit.aig",
        write_aiger_binary(&lifo_explicit).expect("aiger"),
    );
    // ...and two seeded generated designs from the fuzz generator.
    write(
        "gen_s7.aag",
        write_aiger_ascii(&random_design(&GenConfig::aiger(), 7))
            .expect("aiger")
            .into_bytes(),
    );
    write(
        "gen_s11.aig",
        write_aiger_binary(&random_design(&GenConfig::aiger(), 11)).expect("aiger"),
    );
}

/// The corpus files of `dir`, sorted by name for deterministic rows.
fn corpus_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("aag") | Some("aig") | Some("btor") | Some("btor2")
            )
        })
        .collect();
    files.sort();
    files
}

fn stem(path: &Path) -> String {
    path.file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("unnamed")
        .to_string()
}

fn options(timeout: Duration) -> VerifyOptions {
    VerifyOptions::default().wall_limit(Some(timeout))
}

fn run_rows(name: &str, design: &Arc<Design>, max_depth: usize, timeout: Duration) -> Vec<Row> {
    let mut rows = Vec::new();
    for prop in 0..design.properties().len() {
        let benchmark = format!("{name}:p{prop}");

        let started = Instant::now();
        let mut engine = BmcEngine::new(design.as_ref(), options(timeout));
        let run = engine.check(prop, max_depth).expect("bounded check");
        let seconds = started.elapsed().as_secs_f64();
        let (vars, stats) = engine.solver_stats();
        rows.push(Row {
            benchmark: benchmark.clone(),
            mode: "bounded",
            verdict: verdict_name(&run.verdict),
            depth: run.depth_reached,
            seconds,
            vars,
            clauses: stats.original_clauses,
            emm_clauses: engine.emm_stats().clauses,
            conflicts: conflicts(&engine),
        });

        let started = Instant::now();
        let induction = options(timeout).proof_engine(ProofEngine::KInduction);
        let mut engine = BmcEngine::new(design.as_ref(), induction);
        let run = engine.check(prop, max_depth).expect("induction check");
        let seconds = started.elapsed().as_secs_f64();
        let (vars, stats) = engine.solver_stats();
        rows.push(Row {
            benchmark,
            mode: "induction",
            verdict: verdict_name(&run.verdict),
            depth: run.depth_reached,
            seconds,
            vars,
            clauses: stats.original_clauses,
            emm_clauses: engine.emm_stats().clauses,
            conflicts: conflicts(&engine),
        });
    }
    rows
}

/// Replays the whole corpus through [`VerificationServer::submit_model`]
/// batches at pool sizes 1 and 4, each the median of
/// [`SERVER_SAMPLES`](emm_bench::SERVER_SAMPLES) batches. Returns the
/// throughput rows; panics if any job errors, if verdicts differ across
/// batches, or if a bounded verdict disagrees with the direct engine row.
fn run_server(
    designs: &[(String, Arc<Design>)],
    direct: &[Row],
    max_depth: usize,
    timeout: Duration,
) -> Vec<ServerRow> {
    let budget = VerifyBudget {
        max_depth,
        wall_limit: Some(timeout),
        ..VerifyBudget::default()
    };
    let mut baseline: Option<Vec<String>> = None;
    let mut batch = |workers: usize| {
        let mut server = VerificationServer::new(workers);
        let mut labels = Vec::new();
        for (name, design) in designs {
            let source = ModelSource::Design(Arc::clone(design));
            let ids = server
                .submit_model(&source, &budget, &options(timeout))
                .expect("in-memory source always loads");
            for (prop, _) in ids.iter().enumerate() {
                labels.push(format!("{name}:p{prop}"));
            }
        }
        let responses = server.run();
        let verdicts: Vec<String> = responses
            .iter()
            .map(|r| {
                assert!(r.error.is_none(), "server job error: {:?}", r.error);
                verdict_name(&r.verdict)
            })
            .collect();
        // Standing differential 1: the server's bounded verdicts must
        // match the direct BmcEngine rows benchmark-by-benchmark.
        for (label, verdict) in labels.iter().zip(&verdicts) {
            let direct_row = direct
                .iter()
                .find(|r| &r.benchmark == label && r.mode == "bounded")
                .unwrap_or_else(|| panic!("no direct row for {label}"));
            assert_eq!(
                &direct_row.verdict, verdict,
                "{label}: server verdict diverged from direct engine"
            );
        }
        // Standing differential 2: bit-identical batches at every pool size.
        match &baseline {
            None => baseline = Some(verdicts),
            Some(first) => assert_eq!(first, &verdicts, "server verdicts diverged between batches"),
        }
        server.stats()
    };
    [1usize, 4]
        .into_iter()
        .map(|workers| ServerRow::median_of(|| batch(workers)))
        .collect()
}

fn main() {
    let dir = PathBuf::from(arg_value("--dir").unwrap_or_else(|| "corpus".to_string()));
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_corpus.json".to_string());
    let max_depth: usize = arg_value("--max-depth")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10);
    let timeout = Duration::from_secs(
        arg_value("--timeout")
            .and_then(|v| v.parse().ok())
            .unwrap_or(60),
    );
    if arg_flag("--emit") {
        emit_corpus(&dir);
    }

    let files = corpus_files(&dir);
    assert!(
        !files.is_empty(),
        "no .aag/.aig/.btor2 files under {} (run with --emit to generate the golden corpus)",
        dir.display()
    );
    println!(
        "corpus sweep: {} file(s) under {}, max depth {max_depth}, timeout {}s",
        files.len(),
        dir.display(),
        timeout.as_secs()
    );

    let mut designs: Vec<(String, Arc<Design>)> = Vec::new();
    let mut rows: Vec<Row> = Vec::new();
    for path in &files {
        let design = ModelSource::from_path(path)
            .load()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let name = stem(path);
        let file_rows = run_rows(&name, &design, max_depth, timeout);
        for r in &file_rows {
            println!(
                "{:>28} {:>10}: {:>10}  {:.1}s  vars={} clauses={}",
                r.benchmark, r.mode, r.verdict, r.seconds, r.vars, r.clauses
            );
        }
        rows.extend(file_rows);
        designs.push((name, design));
    }

    println!();
    println!("VerificationServer corpus replay:");
    let server_rows = run_server(&designs, &rows, max_depth, timeout);
    for row in &server_rows {
        println!(
            "{:>28} workers={}: {} jobs in {:.1}s = {:.2} jobs/sec ({} core(s))",
            "server", row.workers, row.jobs, row.elapsed_seconds, row.jobs_per_sec, row.cores
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"suite\": \"corpus\",\n");
    writeln!(
        json,
        "  \"config\": {{\"dir\": \"{}\", \"max_depth\": {max_depth}, \"timeout_secs\": {}}},",
        dir.display(),
        timeout.as_secs()
    )
    .expect("write");
    json.push_str("  \"runs\": [\n");
    json.push_str(
        &rows
            .iter()
            .map(|r| {
                format!(
                    "    {{\"benchmark\": \"{}\", \"mode\": \"{}\", \"verdict\": \"{}\", \
                     \"depth\": {}, \"seconds\": {:.3}, \"vars\": {}, \"clauses\": {}, \
                     \"emm_clauses\": {}, \"conflicts\": {}}}",
                    r.benchmark,
                    r.mode,
                    r.verdict,
                    r.depth,
                    r.seconds,
                    r.vars,
                    r.clauses,
                    r.emm_clauses,
                    r.conflicts
                )
            })
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str("\n  ],\n  \"server\": [\n");
    json.push_str(
        &server_rows
            .iter()
            .map(ServerRow::to_json)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out, json).expect("write corpus bench json");
    println!("\nwrote {out}");
}
