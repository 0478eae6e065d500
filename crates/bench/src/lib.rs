//! # emm-bench — the paper's experiment harness
//!
//! Binaries that regenerate each table / case study of *"Verification of
//! Embedded Memory Systems using Efficient Memory Modeling"* (DATE 2005).
//! See `README.md` at the repository root for how to run and read the
//! `simplify` suite and its CI gate.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table 1 — quicksort, EMM vs Explicit induction proofs |
//! | `table2` | Table 2 — quicksort P2 with proof-based abstraction |
//! | `industry1` | Industry Design I case study (witnesses + induction) |
//! | `industry2` | Industry Design II case study (invariant workflow) |
//! | `constraints` | Section 4.1 constraint-size law |
//! | `simplify` | simplify/fraig encoding ablation plus the `incremental` solver-lifecycle comparison on the Table 1/2 workloads; writes `BENCH_simplify.json` |
//! | `bench_check` | CI regression gate: diffs a fresh bench JSON against the committed baseline |
//!
//! Run them with `cargo run --release -p emm-bench --bin <name> [-- args]`.

#![warn(missing_docs)]

use std::time::Duration;

use emm_bmc::ServerStats;

/// Formats a duration like the paper's tables (seconds, one decimal).
pub fn secs(d: Duration) -> String {
    format!("{:.1}", d.as_secs_f64())
}

/// Formats an outcome cell: time when finished, `>limit` on timeout.
pub fn time_or_timeout(d: Duration, finished: bool, limit: Duration) -> String {
    if finished {
        secs(d)
    } else {
        format!(">{}", limit.as_secs())
    }
}

/// Rough live-heap estimate (resident set, MiB) read from /proc, for the
/// tables' memory columns. Returns `None` off Linux.
pub fn resident_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: f64 = rest.trim().trim_end_matches(" kB").trim().parse().ok()?;
            return Some(kb / 1024.0);
        }
    }
    None
}

/// Batches each `server` throughput row drains; the row reports the
/// median. One batch drains in a second or two, so a single sample
/// carries the host's speed drift straight into `bench_check`'s 10%
/// throughput gate.
pub const SERVER_SAMPLES: usize = 3;

/// One `server` section row of a bench JSON file:
/// [`VerificationServer`](emm_bmc::VerificationServer) batch throughput
/// at one pool size. `cores` records the machine the numbers came from —
/// `bench_check` only gates throughput against a baseline measured on the
/// same core count, and only demands multi-worker scaling when the
/// machine can actually run workers in parallel.
#[derive(Clone, Copy, Debug)]
pub struct ServerRow {
    /// Worker threads of the pool.
    pub workers: usize,
    /// Jobs in the batch.
    pub jobs: usize,
    /// Cores the machine reports.
    pub cores: usize,
    /// Wall-clock seconds of the median batch.
    pub elapsed_seconds: f64,
    /// Throughput of the median batch.
    pub jobs_per_sec: f64,
}

impl ServerRow {
    /// Runs `batch` [`SERVER_SAMPLES`] times and keeps the sample with
    /// the median `jobs_per_sec`. Each call of `batch` drains the same
    /// job list on a fresh server and returns its stats.
    pub fn median_of(mut batch: impl FnMut() -> ServerStats) -> ServerRow {
        let mut samples: Vec<ServerStats> = (0..SERVER_SAMPLES).map(|_| batch()).collect();
        samples.sort_by(|a, b| a.jobs_per_sec.total_cmp(&b.jobs_per_sec));
        let median = samples[SERVER_SAMPLES / 2];
        ServerRow {
            workers: median.workers,
            jobs: median.jobs,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            elapsed_seconds: median.elapsed_seconds,
            jobs_per_sec: median.jobs_per_sec,
        }
    }

    /// The row as one record line of the JSON `server` section.
    pub fn to_json(&self) -> String {
        format!(
            "    {{\"workers\": {}, \"jobs\": {}, \"cores\": {}, \
             \"elapsed_seconds\": {:.3}, \"jobs_per_sec\": {:.3}}}",
            self.workers, self.jobs, self.cores, self.elapsed_seconds, self.jobs_per_sec
        )
    }
}

/// Minimal field extraction from the flat one-record-per-line JSON the
/// harness binaries write (`BENCH_simplify.json` and friends). Not a JSON
/// parser — just enough to let the CI `bench_check` gate diff two bench
/// files without external dependencies (the build is offline).
pub mod bench_json {
    /// Extracts the string value of `"key": "..."` from a record line.
    pub fn extract_str<'a>(record: &'a str, key: &str) -> Option<&'a str> {
        let needle = format!("\"{key}\": \"");
        let start = record.find(&needle)? + needle.len();
        let rest = &record[start..];
        let end = rest.find('"')?;
        Some(&rest[..end])
    }

    /// Extracts the numeric value of `"key": N` from a record line
    /// (truncates decimals; first occurrence wins, so query top-level keys
    /// before nested objects appear).
    pub fn extract_u64(record: &str, key: &str) -> Option<u64> {
        let needle = format!("\"{key}\": ");
        let start = record.find(&needle)? + needle.len();
        let digits: String = record[start..]
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        digits.parse().ok()
    }

    /// Extracts the numeric value of `"key": N[.M]` from a record line,
    /// keeping the decimals `extract_u64` truncates (the throughput
    /// fields of the `server` section are fractional).
    pub fn extract_f64(record: &str, key: &str) -> Option<f64> {
        let needle = format!("\"{key}\": ");
        let start = record.find(&needle)? + needle.len();
        let digits: String = record[start..]
            .chars()
            .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        digits.parse().ok()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        const RECORD: &str = r#"{"benchmark": "table1_n3", "mode": "fraig", "verdict": "proof@30", "seconds": 1.013, "vars": 64761, "clauses": 213474, "simplify": {"cache_hits": 53}}"#;

        #[test]
        fn extracts_strings_and_numbers() {
            assert_eq!(extract_str(RECORD, "benchmark"), Some("table1_n3"));
            assert_eq!(extract_str(RECORD, "mode"), Some("fraig"));
            assert_eq!(extract_str(RECORD, "verdict"), Some("proof@30"));
            assert_eq!(extract_u64(RECORD, "vars"), Some(64761));
            assert_eq!(extract_u64(RECORD, "clauses"), Some(213474));
            assert_eq!(extract_u64(RECORD, "seconds"), Some(1));
            assert_eq!(extract_str(RECORD, "missing"), None);
            assert_eq!(extract_u64(RECORD, "missing"), None);
        }

        #[test]
        fn extracts_floats() {
            assert_eq!(extract_f64(RECORD, "seconds"), Some(1.013));
            assert_eq!(extract_f64(RECORD, "vars"), Some(64761.0));
            assert_eq!(extract_f64(RECORD, "missing"), None);
        }
    }
}

/// Simple fixed-width table printer for the harness binaries.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells.to_vec());
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:>w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["N", "Prop", "Sec"]);
        t.row(&["3".into(), "P1".into(), "64".into()]);
        t.row(&["4".into(), "P2".into(), "453".into()]);
        let s = t.render();
        assert!(s.contains("| N | Prop | Sec |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn timeout_formatting() {
        assert_eq!(
            time_or_timeout(Duration::from_secs(5), true, Duration::from_secs(60)),
            "5.0"
        );
        assert_eq!(
            time_or_timeout(Duration::from_secs(61), false, Duration::from_secs(60)),
            ">60"
        );
    }
}
