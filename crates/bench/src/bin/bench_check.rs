//! CI bench-regression gate: diffs a fresh `BENCH_simplify.json` against
//! the committed baseline and fails on verdict changes, clause/variable
//! count regressions beyond a tolerance, or any change of a reduction
//! counter.
//!
//! Every `(benchmark, mode)` row of the baseline must exist in the fresh
//! file with the *same verdict* and with `clauses` and `vars` no more than
//! `--tolerance-pct` (default 5%) above the baseline. A row that carries
//! the step solver's `step_clauses` and `step_vars` (the `kinduction`
//! mode) has those gated by the same rule.
//!
//! The row's `simplify`, `fraig` and `rewrite` counter objects (e.g.
//! `gates_elided`, `merges`, `rewrites`, `npn_classes`) are deterministic,
//! so they are gated for **exact** equality, field by field: any changed,
//! added or removed field fails, and so does a fresh row that lacks an
//! object the baseline row has (or carries one the baseline lacks).
//! `null` on both sides is equal, and a `seconds` field inside an object
//! is never compared. A deliberate change to the reduction passes
//! therefore refreshes the baseline in the same change. Wall times are
//! reported but never gated — CI machines are too noisy for that; counts
//! are deterministic. Rows that only exist in the fresh file (new modes,
//! new workloads) are listed as additions and pass.
//!
//! Improvements are not gated either, but they are not silent: a row
//! any of whose gated counts *drops* by more than the tolerance is
//! flagged as a **stale baseline** — the win should be committed to
//! `BENCH_simplify.json` rather than absorbed, or the next regression up
//! to the old level would pass unnoticed.
//!
//! In addition, `--require-modes` (a comma-separated list defaulting to
//! every mode the `simplify` harness emits, the same list CI passes)
//! demands that each benchmark of **both** files carries every named
//! mode — so a mode silently disappearing from the suite, or a stale
//! baseline missing a newly-shipped mode, fails the gate instead of
//! sliding through as "fewer rows to compare".
//!
//! The `server` section (`VerificationServer` throughput per pool size)
//! is gated separately: the fresh file **must** carry the section, a
//! fresh `jobs_per_sec` more than `--server-tolerance-pct` (default 10%)
//! below the baseline row fails — but only when both runs report the
//! same `cores` count, because throughput measured on different machines
//! is not comparable — and when the fresh machine has at least 4 cores,
//! the 4-worker row must clear 1.5× the 1-worker row (the core-scaling
//! contract of the shared-queue pool).
//!
//! A row's `conflicts` (the corpus rows' search effort) is informational:
//! its delta is printed and shown in the summary table, never gated,
//! because a change to the solver's search moves it by design.
//!
//! `--summary <path>` appends a per-row markdown diff table (verdict,
//! clause/var deltas, conflict delta, status) plus a server-throughput
//! table with a jobs/sec column to the given file — pass
//! `"$GITHUB_STEP_SUMMARY"` in CI to render the whole diff on the run's
//! summary page instead of burying it in the log.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p emm-bench --bin bench_check -- \
//!     --baseline BENCH_simplify.json --fresh /tmp/fresh.json \
//!     [--tolerance-pct 5] [--require-modes naive,fraig,...] \
//!     [--summary "$GITHUB_STEP_SUMMARY"]
//! ```
//!
//! Exit code 0 on pass, 1 on any regression (with a per-row report).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use emm_bench::bench_json::{extract_f64, extract_str, extract_u64};

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// A run record's `(benchmark, mode)`.
type RowKey = (String, String);

/// The reduction counter objects a run record may carry.
const COUNTER_OBJECTS: [&str; 3] = ["simplify", "fraig", "rewrite"];

#[derive(Debug, Clone, PartialEq, Eq)]
struct Row {
    verdict: String,
    vars: u64,
    clauses: u64,
    /// `step_vars` and `step_clauses`, on rows that report a step solver.
    step: Option<(u64, u64)>,
    /// `conflicts`, on rows that report search effort (informational).
    conflicts: Option<u64>,
    /// The non-`null` counter objects, by name: each field's value as
    /// written, `seconds` left out.
    counters: BTreeMap<&'static str, BTreeMap<String, String>>,
}

/// The fields of the flat object `"key": {...}` in a record line, values
/// as written and `seconds` left out; `None` for `null` or no such key.
fn extract_object(record: &str, key: &str) -> Option<BTreeMap<String, String>> {
    let needle = format!("\"{key}\": {{");
    let start = record.find(&needle)? + needle.len();
    let end = start + record[start..].find('}')?;
    let fields = record[start..end].split(", ").filter_map(|field| {
        let (name, value) = field.split_once(": ")?;
        let name = name.trim().trim_matches('"');
        (name != "seconds").then(|| (name.to_string(), value.trim().to_string()))
    });
    Some(fields.collect())
}

/// The `(benchmark, mode)` key and row of one line, `Ok(None)` for lines
/// that are not run records.
fn parse_record(line: &str) -> Result<Option<(RowKey, Row)>, String> {
    let (Some(benchmark), Some(mode)) = (extract_str(line, "benchmark"), extract_str(line, "mode"))
    else {
        return Ok(None);
    };
    // Summary records carry reduction percentages, not counts; only run
    // records have a verdict.
    let Some(verdict) = extract_str(line, "verdict") else {
        return Ok(None);
    };
    let (Some(vars), Some(clauses)) = (extract_u64(line, "vars"), extract_u64(line, "clauses"))
    else {
        return Err(format!("run record without vars/clauses: {line}"));
    };
    let row = Row {
        verdict: verdict.to_string(),
        vars,
        clauses,
        step: extract_u64(line, "step_vars").zip(extract_u64(line, "step_clauses")),
        conflicts: extract_u64(line, "conflicts"),
        counters: COUNTER_OBJECTS
            .into_iter()
            .filter_map(|name| Some((name, extract_object(line, name)?)))
            .collect(),
    };
    Ok(Some(((benchmark.to_string(), mode.to_string()), row)))
}

/// Every difference between the counter objects of a baseline row and a
/// fresh one, as `object.field base -> fresh` (or a missing object).
fn counter_diffs(base: &Row, fresh: &Row) -> Vec<String> {
    let mut diffs = Vec::new();
    for name in COUNTER_OBJECTS {
        match (base.counters.get(name), fresh.counters.get(name)) {
            (None, None) => {}
            (Some(_), None) => diffs.push(format!("{name} counters missing from fresh run")),
            (None, Some(_)) => diffs.push(format!("{name} counters not in baseline")),
            (Some(b), Some(f)) => {
                let fields: std::collections::BTreeSet<&String> =
                    b.keys().chain(f.keys()).collect();
                for field in fields {
                    let (old, new) = (b.get(field), f.get(field));
                    if old != new {
                        let show = |v: Option<&String>| v.map_or("—".to_string(), String::clone);
                        diffs.push(format!("{name}.{field} {} -> {}", show(old), show(new)));
                    }
                }
            }
        }
    }
    diffs
}

/// Parses the `runs` records of a bench JSON into `(benchmark, mode)`-keyed
/// rows. The format is the harness's own: one record per line.
fn parse(path: &str) -> Result<BTreeMap<RowKey, Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        if let Some((key, row)) = parse_record(line).map_err(|e| format!("{path}: {e}"))? {
            rows.insert(key, row);
        }
    }
    if rows.is_empty() {
        return Err(format!("{path}: no run records found"));
    }
    Ok(rows)
}

/// One `server` section row, keyed by worker count.
#[derive(Debug, Clone, PartialEq)]
struct ServerRow {
    jobs: u64,
    cores: u64,
    jobs_per_sec: f64,
}

/// Parses the `server` section rows (one record per line, identified by
/// their `jobs_per_sec` key). An empty map means the file has no server
/// section — the caller decides whether that fails.
fn parse_server(path: &str) -> Result<BTreeMap<u64, ServerRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let Some(jobs_per_sec) = extract_f64(line, "jobs_per_sec") else {
            continue;
        };
        let (Some(workers), Some(jobs), Some(cores)) = (
            extract_u64(line, "workers"),
            extract_u64(line, "jobs"),
            extract_u64(line, "cores"),
        ) else {
            return Err(format!("{path}: malformed server record: {line}"));
        };
        rows.insert(
            workers,
            ServerRow {
                jobs,
                cores,
                jobs_per_sec,
            },
        );
    }
    Ok(rows)
}

fn pct(fresh: u64, base: u64) -> f64 {
    100.0 * (fresh as f64 - base as f64) / base.max(1) as f64
}

/// Every benchmark in `rows` must carry every required mode; returns the
/// `(benchmark, mode)` holes found (reported on stdout).
fn check_required_modes(
    label: &str,
    rows: &BTreeMap<(String, String), Row>,
    required: &[String],
) -> Vec<(String, String)> {
    let mut missing = Vec::new();
    let benchmarks: std::collections::BTreeSet<&String> = rows.keys().map(|(b, _)| b).collect();
    for b in benchmarks {
        for m in required {
            if !rows.contains_key(&(b.clone(), m.clone())) {
                println!("  FAIL {b}/{m}: required mode missing from {label}");
                missing.push((b.clone(), m.clone()));
            }
        }
    }
    missing
}

/// Per-row outcome, for both the stdout report and the markdown summary.
enum Outcome {
    Ok,
    /// Improvement beyond the tolerance: baseline should be refreshed.
    Stale,
    Fail(String),
}

fn main() -> ExitCode {
    let baseline_path =
        arg_value("--baseline").unwrap_or_else(|| "BENCH_simplify.json".to_string());
    let fresh_path = arg_value("--fresh").unwrap_or_else(|| "BENCH_simplify.json".to_string());
    let tolerance: f64 = arg_value("--tolerance-pct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(5.0);
    let server_tolerance: f64 = arg_value("--server-tolerance-pct")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let summary_path = arg_value("--summary");
    let required_modes: Vec<String> = arg_value("--require-modes")
        .unwrap_or_else(|| {
            "naive,simplified,fraig,rewrite_fraig,incremental,kinduction".to_string()
        })
        .split(',')
        .map(|m| m.trim().to_string())
        .filter(|m| !m.is_empty())
        .collect();

    let (baseline, fresh) = match (parse(&baseline_path), parse(&fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (b, f) => {
            for err in [b.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_check: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_check: {} baseline rows ({baseline_path}) vs {} fresh rows ({fresh_path}), \
         tolerance {tolerance}%",
        baseline.len(),
        fresh.len()
    );
    let mut failures = 0usize;
    let mut stale = 0usize;
    let mut table = String::from(
        "| benchmark / mode | verdict | clauses | Δ clauses | vars | Δ vars | Δ conflicts | status |\n\
         |---|---|---:|---:|---:|---:|---:|---|\n",
    );
    for (b, m) in check_required_modes("baseline", &baseline, &required_modes) {
        let _ = writeln!(
            table,
            "| {b} / {m} | — | — | — | — | — | — | ❌ missing from baseline |"
        );
        failures += 1;
    }
    let missing_fresh: std::collections::BTreeSet<(String, String)> =
        check_required_modes("fresh run", &fresh, &required_modes)
            .into_iter()
            .collect();
    for (b, m) in &missing_fresh {
        let _ = writeln!(
            table,
            "| {b} / {m} | — | — | — | — | — | — | ❌ missing from fresh run |"
        );
        failures += 1;
    }
    for ((benchmark, mode), base) in &baseline {
        let key = format!("{benchmark}/{mode}");
        let Some(new) = fresh.get(&(benchmark.clone(), mode.clone())) else {
            // Required-mode holes were already reported and counted above;
            // only flag rows the required-modes check cannot see.
            if !missing_fresh.contains(&(benchmark.clone(), mode.clone())) {
                println!("  FAIL {key}: row missing from fresh run");
                let _ = writeln!(
                    table,
                    "| {benchmark} / {mode} | {} | {} | — | {} | — | — | ❌ missing from fresh run |",
                    base.verdict, base.clauses, base.vars
                );
                failures += 1;
            }
            continue;
        };
        let mut problems = Vec::new();
        if new.verdict != base.verdict {
            // A decisive baseline (proof or counterexample) collapsing to
            // `unknown:*` means the fresh run exhausted a resource budget
            // the baseline fit inside — a perf regression dressed up as a
            // verdict, so call it out as such.
            let decisive = base.verdict.starts_with("proof") || base.verdict.starts_with("cex");
            if decisive && new.verdict.starts_with("unknown") {
                problems.push(format!(
                    "decisive verdict {} degraded to {} (resource exhaustion)",
                    base.verdict, new.verdict
                ));
            } else {
                problems.push(format!("verdict {} -> {}", base.verdict, new.verdict));
            }
        }
        let dc = pct(new.clauses, base.clauses);
        let dv = pct(new.vars, base.vars);
        let mut counts = vec![
            ("clauses", base.clauses, new.clauses),
            ("vars", base.vars, new.vars),
        ];
        match (base.step, new.step) {
            (Some((base_vars, base_clauses)), Some((vars, clauses))) => {
                counts.push(("step_clauses", base_clauses, clauses));
                counts.push(("step_vars", base_vars, vars));
            }
            (Some(_), None) => {
                problems.push("step_vars/step_clauses missing from fresh run".to_string())
            }
            (None, _) => {}
        }
        let diffs = counter_diffs(base, new);
        if !diffs.is_empty() {
            problems.push(format!("counters changed: {}", diffs.join(", ")));
        }
        let mut improved = false;
        let mut deltas = Vec::new();
        for (name, base_count, new_count) in counts {
            let delta = pct(new_count, base_count);
            if delta > tolerance {
                problems.push(format!("{name} {base_count} -> {new_count} (+{delta:.1}%)"));
            }
            improved |= delta < -tolerance;
            deltas.push(format!("{name} {delta:+.1}%"));
        }
        // Search effort is reported, not gated.
        let dconf = match (base.conflicts, new.conflicts) {
            (Some(b), Some(f)) => {
                let delta = pct(f, b);
                deltas.push(format!("conflicts {delta:+.1}% (not gated)"));
                format!("{delta:+.1}%")
            }
            _ => "—".to_string(),
        };
        let deltas = deltas.join(", ");
        let outcome = if !problems.is_empty() {
            Outcome::Fail(problems.join("; "))
        } else if improved {
            Outcome::Stale
        } else {
            Outcome::Ok
        };
        let status = match &outcome {
            Outcome::Ok => {
                println!("  ok   {key}: {} ({deltas})", new.verdict);
                "✅ ok".to_string()
            }
            Outcome::Stale => {
                stale += 1;
                println!(
                    "  ok   {key}: {} ({deltas}) — improvement beyond \
                     tolerance: stale baseline, refresh {baseline_path}",
                    new.verdict
                );
                "⚠️ stale baseline — refresh".to_string()
            }
            Outcome::Fail(msg) => {
                println!("  FAIL {key}: {msg}");
                failures += 1;
                format!("❌ {msg}")
            }
        };
        let _ = writeln!(
            table,
            "| {benchmark} / {mode} | {} | {} → {} | {dc:+.1}% | {} → {} | {dv:+.1}% | {dconf} | {status} |",
            new.verdict, base.clauses, new.clauses, base.vars, new.vars
        );
    }
    for (key, row) in &fresh {
        if !baseline.contains_key(key) {
            println!("  new  {}/{}: not in baseline (allowed)", key.0, key.1);
            let _ = writeln!(
                table,
                "| {} / {} | {} | {} | — | {} | — | — | new (not in baseline) |",
                key.0, key.1, row.verdict, row.clauses, row.vars
            );
        }
    }

    // --- VerificationServer throughput gate -------------------------------
    let (server_base, server_fresh) =
        match (parse_server(&baseline_path), parse_server(&fresh_path)) {
            (Ok(b), Ok(f)) => (b, f),
            (b, f) => {
                for err in [b.err(), f.err()].into_iter().flatten() {
                    eprintln!("bench_check: {err}");
                }
                return ExitCode::FAILURE;
            }
        };
    let mut server_table = String::from(
        "| workers | jobs | cores | jobs/sec (base → fresh) | Δ | status |\n\
         |---:|---:|---:|---:|---:|---|\n",
    );
    if server_fresh.is_empty() {
        println!("  FAIL server: fresh run has no server throughput section");
        let _ = writeln!(
            server_table,
            "| — | — | — | — | — | ❌ missing from fresh run |"
        );
        failures += 1;
    }
    for (workers, new) in &server_fresh {
        let key = format!("server/workers={workers}");
        let Some(base) = server_base.get(workers) else {
            println!(
                "  new  {key}: {:.2} jobs/sec, not in baseline (allowed)",
                new.jobs_per_sec
            );
            let _ = writeln!(
                server_table,
                "| {workers} | {} | {} | — → {:.2} | — | new (not in baseline) |",
                new.jobs, new.cores, new.jobs_per_sec
            );
            continue;
        };
        let drop_pct = 100.0 * (base.jobs_per_sec - new.jobs_per_sec) / base.jobs_per_sec.max(1e-9);
        let comparable = base.cores == new.cores && base.jobs == new.jobs;
        let status = if !comparable {
            println!(
                "  ok   {key}: {:.2} jobs/sec — not gated (baseline ran {} job(s) on {} \
                 core(s), fresh {} job(s) on {})",
                new.jobs_per_sec, base.jobs, base.cores, new.jobs, new.cores
            );
            "ok (different machine/batch — not gated)".to_string()
        } else if drop_pct > server_tolerance {
            println!(
                "  FAIL {key}: throughput {:.2} -> {:.2} jobs/sec (-{drop_pct:.1}%)",
                base.jobs_per_sec, new.jobs_per_sec
            );
            failures += 1;
            format!("❌ throughput -{drop_pct:.1}%")
        } else {
            println!(
                "  ok   {key}: {:.2} jobs/sec ({:+.1}% vs baseline)",
                new.jobs_per_sec, -drop_pct
            );
            "✅ ok".to_string()
        };
        let _ = writeln!(
            server_table,
            "| {workers} | {} | {} | {:.2} → {:.2} | {:+.1}% | {status} |",
            new.jobs, new.cores, base.jobs_per_sec, new.jobs_per_sec, -drop_pct
        );
    }
    // Core-scaling contract: on a machine that can actually run 4 workers
    // in parallel, the 4-worker batch must beat the 1-worker batch by 1.5x.
    if let (Some(one), Some(four)) = (server_fresh.get(&1), server_fresh.get(&4)) {
        if four.cores >= 4 {
            let scaling = four.jobs_per_sec / one.jobs_per_sec.max(1e-9);
            if scaling < 1.5 {
                println!(
                    "  FAIL server: 4-worker throughput only {scaling:.2}x the 1-worker row \
                     on a {}-core machine (need ≥1.5x)",
                    four.cores
                );
                let _ = writeln!(
                    server_table,
                    "| 4 vs 1 | — | {} | — | {scaling:.2}x | ❌ core-scaling below 1.5x |",
                    four.cores
                );
                failures += 1;
            } else {
                println!("  ok   server: 4-worker scaling {scaling:.2}x over 1 worker");
                let _ = writeln!(
                    server_table,
                    "| 4 vs 1 | — | {} | — | {scaling:.2}x | ✅ core-scaling ok |",
                    four.cores
                );
            }
        } else {
            println!(
                "  ok   server: {} core(s) — core-scaling contract not applicable",
                four.cores
            );
        }
    }

    let verdict_line = if failures > 0 {
        format!("**{failures} row(s) regressed** — gate fails.")
    } else if stale > 0 {
        format!(
            "Pass, but {stale} row(s) improved beyond the {tolerance}% tolerance — \
             **stale baseline**: regenerate `{baseline_path}` \
             (`cargo run --release -p emm-bench --bin simplify`) so the win is locked in."
        )
    } else {
        "All rows within tolerance.".to_string()
    };
    if let Some(path) = summary_path {
        // Append (GITHUB_STEP_SUMMARY accumulates across steps).
        use std::io::Write as _;
        let md = format!(
            "## Bench regression gate\n\nBaseline `{baseline_path}` vs fresh \
             `{fresh_path}`, tolerance {tolerance}%.\n\n{table}\n\
             ### Server throughput (tolerance {server_tolerance}%)\n\n\
             {server_table}\n{verdict_line}\n"
        );
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            Ok(mut f) => {
                if let Err(e) = f.write_all(md.as_bytes()) {
                    eprintln!("bench_check: cannot write summary {path}: {e}");
                }
            }
            Err(e) => eprintln!("bench_check: cannot open summary {path}: {e}"),
        }
    }
    if failures > 0 {
        eprintln!("bench_check: {failures} row(s) regressed");
        return ExitCode::FAILURE;
    }
    if stale > 0 {
        println!("bench_check: pass ({stale} stale-baseline warning(s) — refresh {baseline_path})");
    } else {
        println!("bench_check: pass");
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"{"benchmark": "table1_n3", "mode": "rewrite_fraig", "verdict": "proof@30", "seconds": 0.331, "vars": 29554, "clauses": 109508, "simplify": {"gate_queries": 19586, "folded": 1630}, "fraig": null, "rewrite": {"ands_before": 903, "rewrites": 100, "npn_classes": 37, "seconds": 0.012, "interrupted": false}}"#;

    fn row(line: &str) -> Row {
        parse_record(line)
            .expect("well-formed")
            .expect("a run record")
            .1
    }

    #[test]
    fn identical_counters_pass_and_seconds_are_ignored() {
        let fresh = BASE
            .replace("\"seconds\": 0.331", "\"seconds\": 0.5")
            .replace("\"seconds\": 0.012", "\"seconds\": 0.02");
        assert!(counter_diffs(&row(BASE), &row(&fresh)).is_empty());
        assert_eq!(row(BASE).counters.len(), 2, "null is no object");
    }

    #[test]
    fn conflicts_are_read_but_are_no_counter() {
        let line = BASE.replace(
            "\"clauses\": 109508",
            "\"clauses\": 109508, \"conflicts\": 940",
        );
        let fresh = line.replace("\"conflicts\": 940", "\"conflicts\": 764");
        assert_eq!(row(&line).conflicts, Some(940));
        assert_eq!(row(BASE).conflicts, None);
        assert!(counter_diffs(&row(&line), &row(&fresh)).is_empty());
    }

    #[test]
    fn one_changed_counter_fails() {
        let fresh = BASE.replace("\"rewrites\": 100", "\"rewrites\": 101");
        assert_eq!(
            counter_diffs(&row(BASE), &row(&fresh)),
            vec!["rewrite.rewrites 100 -> 101".to_string()]
        );
    }

    #[test]
    fn missing_or_added_objects_fail() {
        let dropped = BASE.replace(
            "\"simplify\": {\"gate_queries\": 19586, \"folded\": 1630}",
            "\"simplify\": null",
        );
        assert_eq!(
            counter_diffs(&row(BASE), &row(&dropped)),
            vec!["simplify counters missing from fresh run".to_string()]
        );
        assert_eq!(
            counter_diffs(&row(&dropped), &row(BASE)),
            vec!["simplify counters not in baseline".to_string()]
        );
        let extra_field = BASE.replace("\"folded\": 1630", "\"folded\": 1630, \"merged\": 0");
        assert_eq!(
            counter_diffs(&row(BASE), &row(&extra_field)),
            vec!["simplify.merged — -> 0".to_string()]
        );
    }
}
