//! Measures the encoding-reduction layers on the paper's Table 1 /
//! Table 2 quicksort workloads and writes a machine-readable
//! `BENCH_simplify.json` so later PRs have a perf trajectory to compare
//! against (CI's `bench-regression` job diffs fresh numbers against the
//! committed file via the `bench_check` binary).
//!
//! For every workload the same property is checked once per mode — the
//! naive seed encoding (`SimplifyConfig::disabled`), the simplifying sink
//! (default config), the sink plus encode-time SAT sweeping, the
//! AIG-level fraig pass on top of the default sink, cut-based rewriting
//! ahead of fraig (the engine default, k = 4 cuts with global
//! selection), wide-cut rewriting (`RewriteConfig::wide()`: k = 6
//! cuts, `u64` truth tables) ahead of fraig, the `incremental`
//! solver-lifecycle row (the sweeping sink solved bound-to-bound on one
//! long-lived solver with clause retirement, against a
//! restart-from-scratch leg of the same configuration), and the
//! `kinduction` row (the unbounded engine's interleaved base case and
//! floating inductive step, recording per-depth seconds, step-query
//! counts, and step-group retirement totals) — recording solver
//! variable/clause counts at the deepest checked frame, wall time
//! (per-bound for the incremental pair and the k loop), retired-clause
//! totals, and the layers' cache / sweep / fraig / rewrite counters.
//!
//! A final `server` section measures `VerificationServer` batch
//! throughput (jobs/sec) at pool sizes 1, 2, and 4 on the quicksort
//! `n = 3` workload, recording the machine's core count alongside so the
//! CI gate can judge core-scaling honestly.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p emm-bench --bin simplify -- [--aw A] [--dw D] [--max-n N] [--timeout SECS] [--out PATH]
//! ```

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use emm_aig::{FraigConfig, RewriteConfig};
use emm_bench::secs;
use emm_bmc::{
    BmcEngine, BmcVerdict, KInduction, VerificationServer, VerifyBudget, VerifyOptions,
    VerifyRequest,
};
use emm_designs::quicksort::{QuickSort, QuickSortConfig};
use emm_sat::SimplifyConfig;

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

struct RunRecord {
    benchmark: String,
    mode: &'static str,
    verdict: String,
    /// Governor exhaustion reason when the verdict is `unknown:*`
    /// (`deadline`, `conflict_limit`, ...), `None` for decisive runs.
    exhaustion: Option<String>,
    depth: usize,
    seconds: f64,
    vars: usize,
    clauses: u64,
    emm_clauses: usize,
    cmp_cache_hits: usize,
    simplify: Option<emm_sat::SimplifyStats>,
    fraig: Option<emm_aig::FraigStats>,
    rewrite: Option<emm_aig::RewriteStats>,
    incremental: Option<IncrementalExtras>,
    kinduction: Option<KinductionExtras>,
}

/// The `kinduction` mode's extra measurements: the floating step
/// context's solver footprint and the per-depth lifecycle counters. The
/// headline `vars`/`clauses` columns stay the *base-case* solver's, so
/// they remain comparable to the anchored rows; the step side lives
/// here.
struct KinductionExtras {
    /// Depth ceiling handed to the engine (a fixed cap — see the
    /// dispatch site in `main`).
    max_k: usize,
    /// Step queries run to completion (SAT or UNSAT).
    step_queries: u64,
    /// Clauses physically retired from per-depth step activation groups
    /// (the group of depth `k` holds `k + 1` clauses, always retired).
    step_clauses_retired: u64,
    /// Deepest depth where induction failed (step query SAT), if any.
    steps_failed: Option<usize>,
    /// Variable count of the step solver at exit.
    step_vars: usize,
    /// Clause count of the step solver at exit.
    step_clauses: u64,
    /// Wall seconds per interleaved base-bound/step-depth iteration.
    per_k_seconds: Vec<f64>,
}

/// The `incremental` mode's extra measurements: solver-side clause
/// retirement totals and the per-bound wall-clock comparison against the
/// restart-from-scratch baseline (same config, `incremental: false`).
struct IncrementalExtras {
    /// Clauses physically retired by the anchored solver (sweep-merged
    /// Tseitin triples + refuted per-bound property clauses).
    retired_clauses: u64,
    /// The property-clause share of `retired_clauses`.
    property_clauses_retired: u64,
    /// Wall seconds per bound, incremental engine.
    per_bound_seconds: Vec<f64>,
    /// Total wall seconds of the restart-from-scratch leg.
    restart_seconds: f64,
    /// Verdict of the restart leg (must match the row's `verdict`).
    restart_verdict: String,
    /// Wall seconds per bound, restart engine.
    restart_per_bound_seconds: Vec<f64>,
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

/// The exhaustion reason alone, for the dedicated JSON field — lets
/// `bench_check` and ad-hoc tooling distinguish a deadline trip from a
/// conflict-cap or memory-ceiling trip without parsing the verdict.
fn exhaustion_name(v: &BmcVerdict) -> Option<String> {
    match v {
        BmcVerdict::Unknown { reason, .. } => Some(reason.as_str().to_string()),
        _ => None,
    }
}

/// The eight measured encoder configurations.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// The seed encoding: no sink layer, no comparator cache, no fraig.
    Naive,
    /// The PR-1 sink: hashing + folding + lazy emission + cmp cache.
    Simplified,
    /// The sink plus encode-time SAT sweeping.
    SimplifiedSweep,
    /// AIG-level fraiging before unrolling, on top of the default sink.
    Fraig,
    /// The engine default: cut-based rewriting (k = 4, global
    /// selection), then fraiging, then the default sink.
    RewriteFraig,
    /// Wide-cut rewriting (`RewriteConfig::wide()`: k = 6 cuts over
    /// `u64` truth tables), then fraiging, then the default sink.
    Rewrite6Fraig,
    /// The sweeping sink measured as a *solver lifecycle* row: one
    /// long-lived solver across the bound loop with per-bound property
    /// clauses retired on refutation and sweep-merged Tseitin triples
    /// physically deleted, against a restart-from-scratch leg of the
    /// same configuration (verdicts must agree; per-bound wall clock is
    /// the headline number).
    Incremental,
    /// The k-induction engine as its own lifecycle row: interleaved
    /// base case and floating inductive step on the sweeping sink, with
    /// per-depth step clauses retired through activation groups. The
    /// quicksort loop counter keeps the recurrence diameter far beyond
    /// the sort bound, so induction honestly reports `bound` on these
    /// workloads — the row pins the step context's encoding cost and
    /// the per-depth retirement totals, not a closure.
    Kinduction,
}

impl Mode {
    const ALL: [Mode; 8] = [
        Mode::Naive,
        Mode::Simplified,
        Mode::SimplifiedSweep,
        Mode::Fraig,
        Mode::RewriteFraig,
        Mode::Rewrite6Fraig,
        Mode::Incremental,
        Mode::Kinduction,
    ];

    fn name(self) -> &'static str {
        match self {
            Mode::Naive => "naive",
            Mode::Simplified => "simplified",
            Mode::SimplifiedSweep => "simplified_sweep",
            Mode::Fraig => "fraig",
            Mode::RewriteFraig => "rewrite_fraig",
            Mode::Rewrite6Fraig => "rewrite6_fraig",
            Mode::Incremental => "incremental",
            Mode::Kinduction => "kinduction",
        }
    }
}

fn run_one(
    benchmark: &str,
    design: &emm_aig::Design,
    prop: usize,
    bound: usize,
    timeout: Duration,
    mode: Mode,
) -> RunRecord {
    let simplify = match mode {
        Mode::Naive => SimplifyConfig::disabled(),
        Mode::Simplified | Mode::Fraig | Mode::RewriteFraig | Mode::Rewrite6Fraig => {
            SimplifyConfig::default()
        }
        Mode::SimplifiedSweep => SimplifyConfig::sweeping(),
        Mode::Incremental => unreachable!("dispatched to run_incremental"),
        Mode::Kinduction => unreachable!("dispatched to run_kinduction"),
    };
    // Only the fraig-and-later modes run the AIG-level passes, so the
    // other rows keep their historical meaning as a trajectory.
    let fraig = if matches!(mode, Mode::Fraig | Mode::RewriteFraig | Mode::Rewrite6Fraig) {
        FraigConfig::default()
    } else {
        FraigConfig::disabled()
    };
    let rewrite = match mode {
        Mode::RewriteFraig => RewriteConfig::default(),
        Mode::Rewrite6Fraig => RewriteConfig::wide(),
        _ => RewriteConfig::disabled(),
    };
    // The naive baseline must be the *seed* encoding: the comparator cache
    // is part of the PR-1 optimizations, so it is switched off together
    // with the sink layer.
    let emm = emm_core::EmmOptions {
        comparator_cache: mode != Mode::Naive,
        ..emm_core::EmmOptions::default()
    };
    // Timed from engine construction so the fraig preprocessing pass is
    // charged to the mode that runs it — the speedup column must reflect
    // end-to-end wall clock.
    let started = Instant::now();
    let mut engine = BmcEngine::new(
        design,
        VerifyOptions::default()
            .proofs(true)
            .wall_limit(Some(timeout))
            .simplify(simplify)
            .fraig(fraig)
            .rewrite(rewrite)
            .emm(emm),
    );
    let run = engine.check(prop, bound).expect("bench run");
    let elapsed = started.elapsed();
    let (vars, solver_stats) = engine.solver_stats();
    let emm = engine.emm_stats();
    RunRecord {
        benchmark: benchmark.to_string(),
        mode: mode.name(),
        verdict: verdict_name(&run.verdict),
        exhaustion: exhaustion_name(&run.verdict),
        depth: run.depth_reached,
        seconds: elapsed.as_secs_f64(),
        vars,
        clauses: solver_stats.original_clauses,
        emm_clauses: emm.clauses,
        cmp_cache_hits: emm.cmp_cache_hits,
        simplify: engine.simplify_stats(),
        fraig: engine.fraig_stats().copied(),
        rewrite: engine.rewrite_stats().copied(),
        incremental: None,
        kinduction: None,
    }
}

/// The `incremental` mode: the sweeping configuration solved
/// bound-to-bound on one long-lived solver per context, then the same
/// configuration again with `incremental: false` (every bound re-encodes
/// and re-solves from scratch). The row's headline counts come from the
/// incremental leg; the extras record the comparison.
fn run_incremental(
    benchmark: &str,
    design: &emm_aig::Design,
    prop: usize,
    bound: usize,
    timeout: Duration,
) -> RunRecord {
    let opts = |incremental: bool| {
        VerifyOptions::default()
            .proofs(true)
            // The restart leg is deliberately quadratic; give it headroom so
            // the comparison ends in matching verdicts, not a timeout.
            .wall_limit(Some(if incremental { timeout } else { timeout * 5 }))
            .simplify(SimplifyConfig::sweeping())
            .fraig(FraigConfig::disabled())
            .rewrite(RewriteConfig::disabled())
            .incremental(incremental)
    };
    let started = Instant::now();
    let mut engine = BmcEngine::new(design, opts(true));
    let run = engine.check(prop, bound).expect("bench run");
    let elapsed = started.elapsed();
    let (vars, solver_stats) = engine.solver_stats();
    let emm = engine.emm_stats();

    let restart_started = Instant::now();
    let mut restart = BmcEngine::new(design, opts(false));
    let restart_run = restart.check(prop, bound).expect("bench run");
    let restart_elapsed = restart_started.elapsed();

    RunRecord {
        benchmark: benchmark.to_string(),
        mode: Mode::Incremental.name(),
        verdict: verdict_name(&run.verdict),
        exhaustion: exhaustion_name(&run.verdict),
        depth: run.depth_reached,
        seconds: elapsed.as_secs_f64(),
        vars,
        clauses: solver_stats.original_clauses,
        emm_clauses: emm.clauses,
        cmp_cache_hits: emm.cmp_cache_hits,
        simplify: engine.simplify_stats(),
        fraig: None,
        rewrite: None,
        incremental: Some(IncrementalExtras {
            retired_clauses: solver_stats.retired_clauses,
            property_clauses_retired: engine.property_clauses_retired(),
            per_bound_seconds: run.per_bound_seconds,
            restart_seconds: restart_elapsed.as_secs_f64(),
            restart_verdict: verdict_name(&restart_run.verdict),
            restart_per_bound_seconds: restart_run.per_bound_seconds,
        }),
        kinduction: None,
    }
}

/// The `kinduction` mode: the [`KInduction`] engine on the sweeping
/// configuration, base case and floating inductive step interleaved up
/// to a fixed depth cap. The headline `vars`/`clauses` come
/// from the base-case solver (comparable to the anchored rows); the
/// step solver's footprint and the per-depth lifecycle counters go into
/// the extras.
fn run_kinduction(
    benchmark: &str,
    design: &emm_aig::Design,
    prop: usize,
    max_k: usize,
    timeout: Duration,
) -> RunRecord {
    let started = Instant::now();
    let mut engine = KInduction::new(
        design,
        VerifyOptions::default()
            .simplify(SimplifyConfig::sweeping())
            .wall_limit(Some(timeout)),
    );
    let run = engine.check(prop, max_k).expect("bench run");
    let elapsed = started.elapsed();
    let (vars, solver_stats) = engine.base().solver_stats();
    let emm = engine.base().emm_stats();
    let (step_vars, step_stats) = engine.step_solver_stats();
    RunRecord {
        benchmark: benchmark.to_string(),
        mode: Mode::Kinduction.name(),
        verdict: verdict_name(&run.verdict),
        exhaustion: exhaustion_name(&run.verdict),
        depth: run.depth_reached,
        seconds: elapsed.as_secs_f64(),
        vars,
        clauses: solver_stats.original_clauses,
        emm_clauses: emm.clauses,
        cmp_cache_hits: emm.cmp_cache_hits,
        simplify: engine.base().simplify_stats(),
        fraig: None,
        rewrite: None,
        incremental: None,
        kinduction: Some(KinductionExtras {
            max_k,
            step_queries: engine.step_queries(),
            step_clauses_retired: engine.step_clauses_retired(),
            steps_failed: engine.steps_failed(),
            step_vars,
            step_clauses: step_stats.original_clauses,
            per_k_seconds: run.per_bound_seconds,
        }),
    }
}

fn json_record(r: &RunRecord) -> String {
    let mut s = String::new();
    write!(
        s,
        "    {{\"benchmark\": \"{}\", \"mode\": \"{}\", \"verdict\": \"{}\", \
         \"exhaustion\": {}, \
         \"depth\": {}, \"seconds\": {:.3}, \"vars\": {}, \"clauses\": {}, \
         \"emm_clauses\": {}, \"cmp_cache_hits\": {}",
        r.benchmark,
        r.mode,
        r.verdict,
        match &r.exhaustion {
            Some(reason) => format!("\"{reason}\""),
            None => "null".to_string(),
        },
        r.depth,
        r.seconds,
        r.vars,
        r.clauses,
        r.emm_clauses,
        r.cmp_cache_hits,
    )
    .expect("write");
    match &r.simplify {
        None => s.push_str(", \"simplify\": null"),
        Some(st) => {
            write!(
                s,
                ", \"simplify\": {{\"gate_queries\": {}, \"folded\": {}, \
                 \"cache_hits\": {}, \"gates_created\": {}, \"gates_emitted\": {}, \
                 \"gates_elided\": {}, \"sweep_checks\": {}, \"sweep_merges\": {}, \
                 \"sweep_refuted\": {}, \"clauses_dropped\": {}, \
                 \"literals_stripped\": {}, \"clauses_retired\": {}, \
                 \"interrupted\": {}}}",
                st.gate_queries,
                st.folded,
                st.cache_hits,
                st.gates_created,
                st.gates_emitted,
                st.gates_elided(),
                st.sweep_checks,
                st.sweep_merges,
                st.sweep_refuted,
                st.clauses_dropped,
                st.literals_stripped,
                st.clauses_retired,
                st.interrupted,
            )
            .expect("write");
        }
    }
    match &r.fraig {
        None => s.push_str(", \"fraig\": null"),
        Some(st) => {
            write!(
                s,
                ", \"fraig\": {{\"ands_before\": {}, \"ands_after\": {}, \
                 \"merges\": {}, \"const_merges\": {}, \"structural_merges\": {}, \
                 \"sat_checks\": {}, \"refuted\": {}, \"unknown\": {}, \
                 \"cex_patterns\": {}, \"buckets_truncated\": {}, \
                 \"interrupted\": {}}}",
                st.ands_before,
                st.ands_after,
                st.merges,
                st.const_merges,
                st.structural_merges,
                st.sat_checks,
                st.refuted,
                st.unknown,
                st.cex_patterns,
                st.buckets_truncated,
                st.interrupted,
            )
            .expect("write");
        }
    }
    match &r.rewrite {
        None => s.push_str(", \"rewrite\": null"),
        Some(st) => {
            write!(
                s,
                ", \"rewrite\": {{\"ands_before\": {}, \"ands_after\": {}, \
                 \"cut_size\": {}, \"iterations\": {}, \"rewrites\": {}, \
                 \"xor_rewrites\": {}, \"mux_rewrites\": {}, \
                 \"cuts_enumerated\": {}, \"candidates_tried\": {}, \
                 \"zero_gain_skipped\": {}, \"candidates_collected\": {}, \
                 \"select_dropped\": {}, \"exchange_swaps\": {}, \
                 \"npn_classes\": {}, \"interrupted\": {}}}",
                st.ands_before,
                st.ands_after,
                st.cut_size,
                st.iterations,
                st.rewrites,
                st.xor_rewrites,
                st.mux_rewrites,
                st.cuts_enumerated,
                st.candidates_tried,
                st.zero_gain_skipped,
                st.candidates_collected,
                st.select_dropped,
                st.exchange_swaps,
                st.npn_classes,
                st.interrupted,
            )
            .expect("write");
        }
    }
    if let Some(extra) = &r.incremental {
        let fmt_bounds = |xs: &[f64]| {
            xs.iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        write!(
            s,
            ", \"retired_clauses\": {}, \"property_clauses_retired\": {}, \
             \"restart_seconds\": {:.3}, \"restart_verdict\": \"{}\", \
             \"per_bound_seconds\": [{}], \"restart_per_bound_seconds\": [{}]",
            extra.retired_clauses,
            extra.property_clauses_retired,
            extra.restart_seconds,
            extra.restart_verdict,
            fmt_bounds(&extra.per_bound_seconds),
            fmt_bounds(&extra.restart_per_bound_seconds),
        )
        .expect("write");
    }
    if let Some(extra) = &r.kinduction {
        write!(
            s,
            ", \"max_k\": {}, \"step_queries\": {}, \
             \"step_clauses_retired\": {}, \"steps_failed\": {}, \
             \"step_vars\": {}, \"step_clauses\": {}, \"per_k_seconds\": [{}]",
            extra.max_k,
            extra.step_queries,
            extra.step_clauses_retired,
            match extra.steps_failed {
                Some(k) => k.to_string(),
                None => "null".to_string(),
            },
            extra.step_vars,
            extra.step_clauses,
            extra
                .per_k_seconds
                .iter()
                .map(|x| format!("{x:.4}"))
                .collect::<Vec<_>>()
                .join(", "),
        )
        .expect("write");
    }
    s.push('}');
    s
}

/// One `server` section row: [`VerificationServer`] batch throughput at a
/// given pool size. `cores` records the machine the numbers came from —
/// `bench_check` only gates throughput against a baseline measured on the
/// same core count, and only demands multi-worker scaling when the
/// machine can actually run workers in parallel.
struct ServerRow {
    workers: usize,
    jobs: usize,
    cores: usize,
    elapsed_seconds: f64,
    jobs_per_sec: f64,
}

/// Measures [`VerificationServer`] throughput on a fixed batch — the
/// quicksort `n = 3` Table 1/2 properties, two submissions each, all
/// sharing one `Arc`'d design so the pre-reduction is shared — at pool
/// sizes 1, 2, and 4. Responses are bit-identical across worker counts
/// (the parallel differential suite proves it); this measures only how
/// fast the batch drains.
fn run_server_bench(aw: usize, dw: usize, timeout: Duration) -> Vec<ServerRow> {
    let qs = QuickSort::new(QuickSortConfig {
        n: 3,
        addr_width: aw,
        data_width: dw,
        bug: Default::default(),
    });
    let design = Arc::new(qs.design.clone());
    let props = [qs.p1.0 as usize, qs.p2.0 as usize];
    let bound = qs.cycle_bound();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let mut server = VerificationServer::new(workers);
        for _ in 0..2 {
            for &prop in &props {
                server.submit(VerifyRequest {
                    design: Arc::clone(&design),
                    property: prop,
                    budget: VerifyBudget {
                        max_depth: bound,
                        wall_limit: Some(timeout),
                        ..VerifyBudget::default()
                    },
                    options: VerifyOptions::default(),
                });
            }
        }
        let responses = server.run();
        assert!(
            responses.iter().all(|r| r.error.is_none()),
            "server bench job failed"
        );
        let stats = server.stats();
        rows.push(ServerRow {
            workers,
            jobs: stats.jobs,
            cores,
            elapsed_seconds: stats.elapsed_seconds,
            jobs_per_sec: stats.jobs_per_sec,
        });
    }
    rows
}

fn json_server_row(r: &ServerRow) -> String {
    format!(
        "    {{\"workers\": {}, \"jobs\": {}, \"cores\": {}, \
         \"elapsed_seconds\": {:.3}, \"jobs_per_sec\": {:.3}}}",
        r.workers, r.jobs, r.cores, r.elapsed_seconds, r.jobs_per_sec
    )
}

fn main() {
    let aw: usize = arg_value("--aw").and_then(|v| v.parse().ok()).unwrap_or(6);
    let dw: usize = arg_value("--dw").and_then(|v| v.parse().ok()).unwrap_or(4);
    let max_n: usize = arg_value("--max-n")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let timeout = Duration::from_secs(
        arg_value("--timeout")
            .and_then(|v| v.parse().ok())
            .unwrap_or(120),
    );
    let out = arg_value("--out").unwrap_or_else(|| "BENCH_simplify.json".to_string());

    println!("Simplifying-layer benchmark: quicksort (Table 1 / Table 2 workloads)");
    println!(
        "AW={aw} DW={dw}, n=3..={max_n}, timeout {}s per run",
        timeout.as_secs()
    );
    println!();

    let mut records: Vec<RunRecord> = Vec::new();
    for n in 3..=max_n {
        let qs = QuickSort::new(QuickSortConfig {
            n,
            addr_width: aw,
            data_width: dw,
            bug: Default::default(),
        });
        // Table 1's workload is the P1/P2 induction proof; Table 2 studies
        // P2. Benchmarks are labeled accordingly.
        for (table, label, prop) in [
            ("table1", "p1", qs.p1.0 as usize),
            ("table2", "p2", qs.p2.0 as usize),
        ] {
            let name = format!("{table}_quicksort_{label}_n{n}");
            for mode in Mode::ALL {
                let r = match mode {
                    Mode::Incremental => {
                        run_incremental(&name, &qs.design, prop, qs.cycle_bound(), timeout)
                    }
                    // The k loop is capped well below the cycle bound:
                    // quicksort's loop counter keeps induction from
                    // closing at any depth the suite could afford, so
                    // deeper k only buys wall time, and a fixed cap
                    // keeps the row's counts machine-independent
                    // (deadline trips would not be).
                    Mode::Kinduction => run_kinduction(&name, &qs.design, prop, 20, timeout),
                    _ => run_one(&name, &qs.design, prop, qs.cycle_bound(), timeout, mode),
                };
                println!(
                    "{:>28} {:>16}: {:>10}  {}s  vars={} clauses={}",
                    r.benchmark,
                    r.mode,
                    r.verdict,
                    secs(Duration::from_secs_f64(r.seconds)),
                    r.vars,
                    r.clauses
                );
                if let Some(rs) = &r.rewrite {
                    println!(
                        "{:>28} {:>16}  {}",
                        "",
                        "",
                        emm_aig::report::format_rewrite_stats(rs)
                    );
                }
                if let Some(fs) = &r.fraig {
                    println!(
                        "{:>28} {:>16}  {}",
                        "",
                        "",
                        emm_aig::report::format_fraig_stats(fs)
                    );
                }
                if let Some(extra) = &r.incremental {
                    println!(
                        "{:>28} {:>16}  restart {}s ({}), {:.2}x vs incremental; \
                         {} clauses retired ({} property)",
                        "",
                        "",
                        secs(Duration::from_secs_f64(extra.restart_seconds)),
                        extra.restart_verdict,
                        extra.restart_seconds / r.seconds.max(1e-9),
                        extra.retired_clauses,
                        extra.property_clauses_retired,
                    );
                }
                if let Some(extra) = &r.kinduction {
                    println!(
                        "{:>28} {:>16}  step: {} queries, {} clauses retired, \
                         failed@{:?}, {} vars / {} clauses",
                        "",
                        "",
                        extra.step_queries,
                        extra.step_clauses_retired,
                        extra.steps_failed,
                        extra.step_vars,
                        extra.step_clauses,
                    );
                }
                records.push(r);
            }
        }
    }

    println!();
    println!("VerificationServer throughput (quicksort n=3 batch):");
    let server_rows = run_server_bench(aw, dw, timeout);
    for row in &server_rows {
        println!(
            "{:>28} workers={}: {} jobs in {}s = {:.2} jobs/sec ({} core(s))",
            "server",
            row.workers,
            row.jobs,
            row.elapsed_seconds as u64,
            row.jobs_per_sec,
            row.cores
        );
    }

    // Per-benchmark reductions vs the naive baseline (a benchmark's mode
    // rows are adjacent in `records`).
    let mut summary = String::new();
    println!();
    for group in records.chunks(Mode::ALL.len()) {
        let [naive, rest @ ..] = group else { continue };
        for simp in rest {
            // The kinduction row stops at its own capped k, not the
            // cycle bound — a clause/var ratio against the naive row
            // would compare different depths, so it stays out of the
            // reduction summary (its numbers live in the runs section).
            if simp.mode == Mode::Kinduction.name() {
                continue;
            }
            let clause_red = 100.0 * (1.0 - simp.clauses as f64 / naive.clauses.max(1) as f64);
            let var_red = 100.0 * (1.0 - simp.vars as f64 / naive.vars.max(1) as f64);
            let speedup = naive.seconds / simp.seconds.max(1e-9);
            println!(
                "{:>28} {:>16}: clauses -{clause_red:.1}%  vars -{var_red:.1}%  speedup {speedup:.2}x",
                naive.benchmark, simp.mode
            );
            if !summary.is_empty() {
                summary.push_str(",\n");
            }
            write!(
                summary,
                "    {{\"benchmark\": \"{}\", \"mode\": \"{}\", \
                 \"clause_reduction_pct\": {clause_red:.2}, \
                 \"var_reduction_pct\": {var_red:.2}, \"speedup\": {speedup:.3}}}",
                naive.benchmark, simp.mode
            )
            .expect("write");
        }
    }

    let mut json = String::new();
    json.push_str("{\n  \"suite\": \"simplify\",\n");
    writeln!(
        json,
        "  \"config\": {{\"aw\": {aw}, \"dw\": {dw}, \"max_n\": {max_n}, \
         \"timeout_secs\": {}}},",
        timeout.as_secs()
    )
    .expect("write");
    json.push_str("  \"runs\": [\n");
    json.push_str(
        &records
            .iter()
            .map(json_record)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str("\n  ],\n  \"server\": [\n");
    json.push_str(
        &server_rows
            .iter()
            .map(json_server_row)
            .collect::<Vec<_>>()
            .join(",\n"),
    );
    json.push_str("\n  ],\n  \"summary\": [\n");
    json.push_str(&summary);
    json.push_str("\n  ]\n}\n");
    std::fs::write(&out, json).expect("write BENCH_simplify.json");
    println!("\nwrote {out}");
}
