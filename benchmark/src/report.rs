//! The benchmark's output: the result line, the run context, and the
//! process's peak memory.

use std::path::Path;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: the last line the benchmark prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// One JSON object with exactly the keys `correct`, `attempted`,
    /// `failed` and `metrics`. Values keep every digit Rust prints for
    /// them (the shortest text that reads back to the same `f64`).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number; a value that is not finite (an empty ratio) prints as 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` text,
/// in MiB.
pub fn vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib / 1024.0)
}

/// This process's peak resident memory in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What a result was measured on; results are comparable only between
/// runs with the same core count.
#[derive(Clone, Debug)]
pub struct Context {
    pub workload: String,
    pub cores: usize,
    pub workers: usize,
    pub profile: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub commit: String,
}

impl Context {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": \"{}\", \"cores\": {}, \"workers\": {}, \"profile\": \"{}\", \
             \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": \"{}\"}}",
            self.workload,
            self.cores,
            self.workers,
            self.profile,
            self.seed,
            self.seconds,
            self.trace,
            self.commit
        )
    }
}

/// The commit checked out under `root`, read from `.git` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_commit(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let resolved = read(&git.join("HEAD")).and_then(|head| {
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        read(&git.join(reference))
            .map(|s| s.trim().to_string())
            .or_else(|| {
                read(&git.join("packed-refs"))?.lines().find_map(|l| {
                    let (hash, name) = l.split_once(' ')?;
                    (name == reference).then(|| hash.to_string())
                })
            })
    });
    match resolved {
        Some(hash) if !hash.is_empty() && hash.bytes().all(|b| b.is_ascii_hexdigit()) => hash,
        _ => "unknown".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A JSON value, as far as the result line needs.
    #[derive(Debug, PartialEq)]
    enum Json {
        Bool(bool),
        Num(f64),
        Str(String),
        Obj(BTreeMap<String, Json>),
    }

    /// Reads one JSON value from the front of `s`, returning the rest.
    fn parse(s: &str) -> (Json, &str) {
        let s = s.trim_start();
        if let Some(mut rest) = s.strip_prefix('{') {
            let mut map = BTreeMap::new();
            loop {
                rest = rest.trim_start();
                if let Some(r) = rest.strip_prefix('}') {
                    return (Json::Obj(map), r);
                }
                rest = rest.strip_prefix(',').unwrap_or(rest);
                let (Json::Str(key), r) = parse(rest) else {
                    panic!("object key must be a string");
                };
                let r = r.trim_start().strip_prefix(':').expect("colon");
                let (value, r) = parse(r);
                map.insert(key, value);
                rest = r;
            }
        } else if let Some(rest) = s.strip_prefix('"') {
            let end = rest.find('"').expect("closing quote");
            (Json::Str(rest[..end].to_string()), &rest[end + 1..])
        } else if let Some(rest) = s.strip_prefix("true") {
            (Json::Bool(true), rest)
        } else if let Some(rest) = s.strip_prefix("false") {
            (Json::Bool(false), rest)
        } else {
            let end = s
                .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
                .unwrap_or(s.len());
            (Json::Num(s[..end].parse().expect("number")), &s[end..])
        }
    }

    #[test]
    fn result_line_round_trips() {
        let outcome = Outcome {
            correct: true,
            attempted: 12,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "wall_s",
                    unit: "s",
                    value: 1.2345678901234567,
                },
                Metric {
                    name: "peak_rss_mib",
                    unit: "MiB",
                    value: 301.25,
                },
                Metric {
                    name: "trace.overhead_s",
                    unit: "s",
                    value: -0.000123,
                },
            ],
        };
        let line = outcome.to_json();
        assert!(!line.contains('\n'));
        let (Json::Obj(top), rest) = parse(&line) else {
            panic!("top level must be an object");
        };
        assert!(rest.trim().is_empty());
        assert_eq!(
            top.keys().collect::<Vec<_>>(),
            ["attempted", "correct", "failed", "metrics"]
        );
        assert_eq!(top["correct"], Json::Bool(true));
        assert_eq!(top["attempted"], Json::Num(12.0));
        assert_eq!(top["failed"], Json::Num(0.0));
        let Json::Obj(metrics) = &top["metrics"] else {
            panic!("metrics must be an object");
        };
        assert_eq!(metrics.len(), outcome.metrics.len());
        for m in &outcome.metrics {
            let Json::Obj(entry) = &metrics[m.name] else {
                panic!("metric entry must be an object");
            };
            assert_eq!(
                entry["value"],
                Json::Num(m.value),
                "{} keeps every digit",
                m.name
            );
            assert_eq!(entry["unit"], Json::Str(m.unit.to_string()));
        }
    }

    #[test]
    fn non_finite_values_stay_valid_json() {
        assert_eq!(number(f64::NAN), "0");
        assert_eq!(number(0.5), "0.5");
    }

    #[test]
    fn vm_hwm_is_read_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(vm_hwm_mib(status), Some(2.0));
        assert_eq!(vm_hwm_mib("VmRSS:\t 1024 kB\n"), None);
        assert_eq!(vm_hwm_mib("VmHWM:\t lots\n"), None);
        assert!(peak_rss_mib().expect("linux /proc") > 0.0);
    }

    #[test]
    fn commit_is_unknown_outside_a_checkout() {
        assert_eq!(git_commit(Path::new("no/such/checkout")), "unknown");
    }
}
